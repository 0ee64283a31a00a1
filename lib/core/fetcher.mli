(** The session's view of "the rest of the system".

    One record of operations through which a session obtains segments,
    locks, commits and allocations. The paper's observation that "the
    interface provided by the node server is the same in both modes, it
    is just the process boundaries that differ" is realised here: the
    same session engine runs over {!direct} (plain calls into a
    co-located server) and {!Remote.fetcher} (every operation crosses the
    simulated network).

    Operations that cannot proceed raise {!Would_block} (the requester
    should abort/retry later) or {!Deadlock_abort} (this transaction was
    chosen as the deadlock victim). *)

module Page_id = Bess_cache.Page_id
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode

exception Would_block
exception Deadlock_abort

(** A lock wait expired under timeout detection: suspected deadlock
    only. The transaction aborts, but retrying it is reasonable —
    retrying after {!Deadlock_abort} (a proven cycle) is not. *)
exception Lock_timeout

type t = {
  client_id : int;
  f_begin : unit -> int;  (** open a transaction at the server; returns its id *)
  f_lock : txn:int -> Lock_mgr.resource -> Lock_mode.t -> unit;
  f_fetch_segment : txn:int -> Bess_storage.Seg_addr.t -> mode:Lock_mode.t -> Bytes.t list;
  f_fetch_page : txn:int -> Page_id.t -> mode:Lock_mode.t -> into:Bytes.t -> unit;
      (** lock the page in [mode] and copy it into [into], one page long *)
  f_commit : txn:int -> Server.update list -> unit;
  f_commit_begin : txn:int -> Server.update list -> unit -> unit;
      (** group-commit path: logs the commit and releases server state,
          returning the durability barrier — the acknowledgement point.
          Invoke the barrier before treating the commit as durable. *)
  f_abort : txn:int -> unit;
  f_prepare : txn:int -> coordinator:int -> Server.update list -> [ `Vote_yes | `Vote_no ];
  f_decide : txn:int -> [ `Commit | `Abort ] -> unit;
  f_alloc_segment : area:int -> npages:int -> Bess_storage.Seg_addr.t;
      (** allocates and zeroes a disk segment *)
  f_free_segment : Bess_storage.Seg_addr.t -> unit;
  f_register_sink : (Lock_mgr.resource -> Lock_mode.t -> Server.callback_reply) -> unit;
      (** install the handler for server-initiated callbacks *)
}

(** Direct same-machine embedding (node 2 of Figure 2). *)
val direct : client_id:int -> Server.t -> t
