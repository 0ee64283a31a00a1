(** A storage area: a UNIX file or in-memory arena of pages, partitioned
    into extents whose disk segments are allocated by the binary buddy
    system (section 2). File-backed areas grow one extent at a time. *)

type t

(** [create ~id backend] makes a fresh area with one extent. [extent_order]
    fixes the data pages per extent at [2^extent_order]; it is capped so
    the per-extent allocation table fits one metadata page. *)
val create :
  ?page_size:int ->
  ?extent_order:int ->
  id:int ->
  [ `Memory | `File of string ] ->
  t

(** The largest [extent_order] whose allocation table fits one page of
    [page_size] bytes. *)
val max_extent_order : int -> int

(** Re-open a file-backed area created by {!create}; buddy allocation state
    is restored from the persisted extent tables. *)
val open_file : id:int -> string -> t

(** Persist superblock and extent tables; fsync file-backed areas. *)
val sync : t -> unit

val close : t -> unit
val page_size : t -> int
val id : t -> int
val stats : t -> Bess_util.Stats.t
val n_extents : t -> int

(** Data-page capacity (excludes superblock and metadata pages). *)
val capacity_pages : t -> int

val free_pages : t -> int

(** [read_page t pageno] returns a fresh copy of the page. *)
val read_page : t -> int -> Bytes.t

(** [read_page_into t pageno buf] reads into a page-sized buffer. *)
val read_page_into : t -> int -> Bytes.t -> unit

val write_page : t -> int -> Bytes.t -> unit

(** [alloc t ~npages] allocates a disk segment of [npages] contiguous pages
    (rounded up to a power of two internally) and returns its absolute
    first page. Growable areas add an extent when full. *)
val alloc : t -> npages:int -> int option

(** [free t ~first_page] releases a segment allocated by {!alloc}. *)
val free : t -> first_page:int -> unit

(** Allocated size (pages, power of two) of the segment at [first_page]. *)
val seg_size : t -> first_page:int -> int option
