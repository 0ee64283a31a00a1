(** The shared mapping table (SMT) of section 4.1.2.

    Every process reserves the same number of PVMA frames; the SMT pins
    each cached database page to one *virtual frame index*, identical for
    all processes ("if a process maps a page at some frame, all processes
    see this page at this frame (but possibly at different address)").
    Shared pointers are SVMA offsets [vframe * page_size + offset],
    resolvable through any process's PVMA base. *)

type t

val create : n_vframes:int -> t
val n_vframes : t -> int
val vframe_of : t -> Page_id.t -> int option
val n_assigned : t -> int

(** Assign a frame to a page — the existing one if present, else an
    unused frame; [None] when the SVMA is exhausted. *)
val assign : t -> Page_id.t -> int option

(** The page left the shared cache: free its frame. *)
val release : t -> Page_id.t -> unit

(** SVMA pointer arithmetic. *)
val svma_of : t -> page_size:int -> vframe:int -> offset:int -> int

val decompose : page_size:int -> int -> int * int
