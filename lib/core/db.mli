(** Database assembly: storage areas + catalog + the owning server.

    A BeSS database is a collection of BeSS files whose object segments
    live in storage areas owned by one BeSS server. Memory-backed
    databases serve tests and benchmarks; directory databases persist as
    `area_*.bess` files, `wal.log` and a `catalog.meta` control file and
    survive process restarts.

    Area ids are globally unique ([db_id * 100 + k]) because sessions
    attached to several databases key page tables by (area, page). *)

type t

(** A fresh in-memory database with its own server. *)
val create_memory :
  ?page_size:int ->
  ?n_areas:int ->
  ?extent_order:int ->
  ?cache_slots:int ->
  ?host:int ->
  db_id:int ->
  unit ->
  t

(** A fresh directory database: [n_areas] file-backed areas plus a WAL
    file, created under [dir] (made if missing). *)
val create_dir :
  ?page_size:int ->
  ?n_areas:int ->
  ?extent_order:int ->
  ?cache_slots:int ->
  ?host:int ->
  db_id:int ->
  string ->
  t

(** Re-open a directory database: catalog decoded from `catalog.meta`,
    areas re-opened with their allocation state. *)
val open_dir : ?cache_slots:int -> db_id:int -> string -> t

val db_id : t -> int
val catalog : t -> Catalog.t
val server : t -> Server.t
val areas : t -> Bess_storage.Area_set.t
val default_area : t -> int
val area_ids : t -> int list

(** The page size of the default area: a session's pool pages. *)
val page_size : t -> int

(** A direct (same-machine) client session on this database (node 2 of
    Figure 2). Remote and node-server clients are built in {!Remote} and
    {!Node_server}. *)
val session : ?pool_slots:int -> t -> Session.t

(** Attach this database to an existing session for inter-database work
    (forward objects, distributed transactions). *)
val attach : t -> Session.t -> unit

(** Flush WAL + dirty pages + area metadata, and persist the catalog
    (directory databases). *)
val sync : t -> unit

val close : t -> unit
