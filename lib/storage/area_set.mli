(** A set of storage areas addressed by id. A multifile stripes its
    segments round-robin over {!ids}, in registration order. *)

type t

val create : unit -> t

(** Register an area; its {!Area.id} must be unique in the set. *)
val add : t -> Area.t -> unit

val find : t -> int -> Area.t
val ids : t -> int list
val iter : t -> (Area.t -> unit) -> unit

(** Allocate a segment in one named area (ordinary BeSS files: all segments
    of a file live in a single area). *)
val alloc_in : t -> area_id:int -> npages:int -> Seg_addr.t option

val free : t -> Seg_addr.t -> unit
val read_page : t -> area_id:int -> int -> Bytes.t
val read_page_into : t -> area_id:int -> int -> Bytes.t -> unit
val write_page : t -> area_id:int -> int -> Bytes.t -> unit
val sync : t -> unit
val close : t -> unit
