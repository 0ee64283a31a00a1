(** The one client protocol of a {!Server}.

    One record of operations through which a client obtains segments,
    pages, locks, commits and allocations, and answers the server's
    callbacks. The paper's observation that "the interface provided by
    the node server is the same in both modes, it is just the process
    boundaries that differ" is realised here: a {!Session}, a
    {!Node_server} (on behalf of its local applications) and the shard
    router ([Bess_shard.Shard]) all reach their servers through a [t],
    either {!direct} (plain calls into a co-located server) or
    {!Remote.fetcher} (every operation crosses the simulated network).

    Operations that cannot proceed raise {!Would_block} (the requester
    should abort/retry later), {!Deadlock_abort} (this transaction was
    chosen as the deadlock victim) or {!Lock_timeout}; {!refuse} is the
    one place a refused verdict becomes one of them. *)

module Page_id = Bess_cache.Page_id
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode

exception Would_block
exception Deadlock_abort

(** A lock wait expired under timeout detection: suspected deadlock
    only. The transaction aborts, but retrying it is reasonable —
    retrying after {!Deadlock_abort} (a proven cycle) is not. *)
exception Lock_timeout

(** A lock request the server did not grant. *)
type refusal = [ `Blocked | `Deadlock | `Timeout ]

(** Raise the exception a refusal maps to: [`Blocked] -> {!Would_block},
    [`Deadlock] -> {!Deadlock_abort}, [`Timeout] -> {!Lock_timeout}. *)
val refuse : [< refusal ] -> 'a

type t = {
  client_id : int;
  f_begin : unit -> int;  (** open a transaction at the server; returns its id *)
  f_lock : txn:int -> Lock_mgr.resource -> Lock_mode.t -> unit;
  f_fetch_segment : txn:int -> Bess_storage.Seg_addr.t -> mode:Lock_mode.t -> Bytes.t list;
  f_fetch_page : txn:int -> Page_id.t -> mode:Lock_mode.t -> into:Bytes.t -> unit;
      (** lock the page in [mode] and copy it into [into], which must be
          one server page long ([Invalid_argument] otherwise) *)
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

(** The callback sink of a client that caches pages (section 3): refuse
    while [busy ()] (a transaction is open, so the page may be in use;
    the requester blocks and retries), otherwise [drop] the page and
    answer [`Dropped]. Sessions and node servers register it through
    [f_register_sink]. *)
val page_sink :
  busy:(unit -> bool) ->
  drop:(Page_id.t -> unit) ->
  Lock_mgr.resource ->
  Lock_mode.t ->
  Server.callback_reply

(** Direct same-machine embedding (node 2 of Figure 2). *)
val direct : client_id:int -> Server.t -> t
