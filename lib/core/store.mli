(** The server-side page store: storage areas fronted by a page cache,
    with write-ahead logging and ARIES recovery wired through.

    Enforced invariants: the WAL rule (a dirty page writes back only
    after the log is forced past its LSN) and steal/no-force (dirty pages
    may be evicted before commit; commit forces only the log). Page LSNs
    are volatile — update records carry physical images, so redo is
    idempotent from LSN 0 (DESIGN.md §7). *)

module Page_id = Bess_cache.Page_id

type t

(** [log] supplies a pre-opened (possibly recovered-from) log; [log_path]
    otherwise names a fresh backing file. Every commit site forces
    through one scheduler, {!Bess_wal.Group_commit.Immediate} until
    {!set_group_policy}. The page cache is the registry's [cache]
    ({!Bess_cache.Cache.register}); the log's stats, its unflushed bytes
    and the scheduler's pending tickets are its [wal]. *)
val create :
  ?log_path:string ->
  ?log:Bess_wal.Log.t ->
  ?cache_slots:int ->
  Bess_storage.Area_set.t ->
  t
val cache : t -> Bess_cache.Cache.t
val log : t -> Bess_wal.Log.t

val set_group_policy : t -> Bess_wal.Group_commit.policy -> unit

(** Block until [ticket]'s LSN is durable (the commit acknowledgement). *)
val await_commit : t -> Bess_wal.Group_commit.ticket -> unit
val areas : t -> Bess_storage.Area_set.t
val stats : t -> Bess_util.Stats.t

(** [read_into t page ~off dst ~dst_off ~len] copies [len] bytes of the
    cached [page] from [off] into [dst] at [dst_off], allocating nothing.
    Raises [Invalid_argument] before touching the page if either range
    is out of bounds. *)
val read_into : t -> Page_id.t -> off:int -> Bytes.t -> dst_off:int -> len:int -> unit

(** A fresh copy of a whole page: {!read_into} into a new buffer, for
    callers that keep the copy (a remote fetch's wire reply, tests). *)
val read_page : t -> Page_id.t -> Bytes.t

(** Allocate a disk segment of [npages] in [area] whose pages read as
    zeros, on disk and in the cache alike; [None] when the area is full. *)
val alloc_segment : t -> area:int -> npages:int -> Bess_storage.Seg_addr.t option

(** All pages of one disk segment, in order. *)
val read_segment : t -> Bess_storage.Seg_addr.t -> Bytes.t list

(** Log one physical update and apply it to the cached page; returns the
    record's LSN. *)
val apply_update :
  t -> txn:int -> prev_lsn:int -> Page_id.t -> offset:int -> before:Bytes.t -> after:Bytes.t -> int

(** Append COMMIT + END and register a durability ticket with the group
    scheduler; the commit may be acknowledged only after the ticket is
    awaited. Returns the commit LSN and the ticket. *)
val log_commit_begin : t -> txn:int -> prev_lsn:int -> int * Bess_wal.Group_commit.ticket

(** [log_commit_begin] followed by {!await_commit}: append COMMIT, make
    it durable per the group policy, append END; returns the commit LSN. *)
val log_commit : t -> txn:int -> prev_lsn:int -> int

(** Append PREPARE and make it durable via the scheduler (2PC phase 1 —
    the vote is a synchronous acknowledgement); returns its LSN. *)
val log_prepare : t -> txn:int -> prev_lsn:int -> coordinator:int -> int

(** The abstract page interface ARIES recovery and rollback drive. *)
val page_io : t -> Bess_wal.Recovery.page_io

(** Roll back one transaction in place with CLRs; returns updates undone. *)
val rollback : t -> txn:int -> last_lsn:int -> int

(** Fuzzy checkpoint recording the given transaction table
    [(txn, last LSN, status)] and the cache's dirty pages, each with its
    recovery LSN (the LSN that took it from clean to dirty). *)
val checkpoint : t -> txns:(int * int * Bess_wal.Log_record.txn_status) list -> unit

(** Crash simulation: discard all volatile state (cache contents, page
    LSNs, unforced log tail). *)
val crash : t -> unit

(** ARIES restart: analysis, redo, undo. *)
val recover : t -> Bess_wal.Recovery.outcome

(** Force the log and write back every dirty page (orderly shutdown). *)
val flush_all : t -> unit
