(** BeSS files and multifiles (section 2).

    A BeSS file groups objects for later retrieval by cursor; an ordinary
    file's segments all live in one storage area (so its size is bounded
    by area addressability), while a multifile stripes its segments
    round-robin over every area of the database — unbounded size and one
    scan stream per (simulated) device, the parallel-I/O mechanism
    Prospector and MoonBase use. *)

type t

(** [create session ~name ()] makes an ordinary file bound to [area]
    (default: the database's default area), or a multifile when [multi].
    [slotted_pages]/[data_pages] shape each segment the file grows by. *)
val create :
  ?db_id:int ->
  ?area:int ->
  ?multi:bool ->
  ?slotted_pages:int ->
  ?data_pages:int ->
  Session.t ->
  name:string ->
  unit ->
  t

val open_existing :
  ?db_id:int -> ?slotted_pages:int -> ?data_pages:int -> Session.t -> name:string -> unit -> t

val name : t -> string
val file_id : t -> int
val db_id : t -> int
val seg_ids : t -> int list
val is_multifile : t -> bool
val info : t -> Catalog.file_info

(** Append a fresh segment to the file (ordinarily done automatically by
    {!new_object} when the current segment fills). *)
val add_segment : t -> Session.seg_rt

(** Create an object in the file, growing it by a segment when needed. *)
val new_object : t -> Type_desc.t -> size:int -> int

(** Create a transparent large object (<= 64KB) in the file. *)
val new_large_object : t -> size:int -> int

(** {2 Cursors and scans} *)

(** Sequential scan in segment order. *)
val iter : t -> (int -> unit) -> unit

val fold : t -> ('a -> int -> 'a) -> 'a -> 'a
val count : t -> int

type cursor

val cursor : t -> cursor

(** Consumer-driven iteration; [None] at end. *)
val next : cursor -> int option

(** Striped scan of a multifile: consume segments in round-robin area
    order (the access pattern of a parallel scan, one stripe per device).
    Returns (objects visited, parallel streams). *)
val striped_scan : t -> (int -> unit) -> int * int
