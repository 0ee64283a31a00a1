(** Per-database catalog: segment table, file table, root directory,
    type registry.

    The segment table maps segment ids to the disk address of the
    *slotted* segment only — slotted segments are never relocated
    (section 2.1), so the table is write-once per segment, and everything
    movable (data segment, overflow) is addressed from the slotted header
    itself. That is why reorganisation never touches the catalog or any
    reference.

    The root directory implements named objects (section 2.5): "a pair of
    hash tables", one per direction, giving referential integrity —
    deleting a named object also removes its name. *)

type file_info = {
  file_id : int;
  file_name : string;
  mutable area_id : int option;  (** [Some a]: file bound to one area; [None]: multifile *)
  mutable seg_ids : int list;  (** segments in creation order *)
}

type t

val create : db_id:int -> host:int -> t
val db_id : t -> int
val host : t -> int
val types : t -> Type_desc.registry

(** {2 Segments} *)

val fresh_seg_id : t -> int

(** Record a slotted segment's disk address (also advances the id
    counter past explicitly numbered segments). *)
val add_segment : t -> seg_id:int -> Bess_storage.Seg_addr.t -> unit

val find_segment : t -> int -> Bess_storage.Seg_addr.t
val n_segments : t -> int
val segment_ids : t -> int list

(** {2 Files} *)

val create_file : t -> name:string -> area_id:int option -> file_info
val find_file_by_name : t -> string -> file_info option
val file_add_segment : t -> file_info -> int -> unit

(** Rebind a file to another area (file movement, section 2.1). *)
val file_set_area : file_info -> int option -> unit

val files : t -> file_info list

(** {2 Root directory} *)

val set_root : t -> name:string -> Oid.t -> unit
val find_root : t -> string -> Oid.t option
val root_name : t -> Oid.t -> string option
val remove_root_by_name : t -> string -> unit

(** Referential integrity: deleting an object also unnames it. *)
val remove_root_by_oid : t -> Oid.t -> unit

val roots : t -> (string * Oid.t) list

(** {2 Serialization} (the control-file blob, see DESIGN.md §7) *)

val encode : t -> Bytes.t
val decode : Bytes.t -> t
