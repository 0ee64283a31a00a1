(* The one client protocol of a server.

   A session (client application context), a node server and the shard
   router obtain segments, pages, locks, commits and allocations through
   this record, and answer callbacks through its sink. The paper's point
   that "the interface provided by the node server is the same in both
   modes, it is just the process boundaries that differ" is realised
   here: the same clients run over

   - {!direct}: plain function calls into a co-located {!Server} (an
     application running on the same machine as a BeSS server, node 2 of
     Figure 2), and
   - a transport-backed implementation ({!Remote.fetcher}) where every
     operation crosses the simulated network (node 1/3 of Figure 2).

   Operations that cannot be granted raise {!Would_block},
   {!Deadlock_abort} or {!Lock_timeout}; the caller (benchmark harness or
   application) aborts/retries. *)

module Page_id = Bess_cache.Page_id
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode

exception Would_block
exception Deadlock_abort

(* A lock wait expired under timeout detection: suspicion of deadlock,
   not proof. The transaction must still abort (its locks are gone),
   but the *work* is worth retrying — unlike [Deadlock_abort]. *)
exception Lock_timeout

type t = {
  client_id : int;
  f_begin : unit -> int;
  f_lock : txn:int -> Lock_mgr.resource -> Lock_mode.t -> unit; (* raises *)
  f_fetch_segment : txn:int -> Bess_storage.Seg_addr.t -> mode:Lock_mode.t -> Bytes.t list;
  f_fetch_page : txn:int -> Page_id.t -> mode:Lock_mode.t -> into:Bytes.t -> unit;
      (* fills [into], one page long *)
  f_commit : txn:int -> Server.update list -> unit; (* raises on rejection *)
  f_commit_begin : txn:int -> Server.update list -> unit -> unit;
      (* group-commit path: logs the commit and releases locks, deferring
         the durability wait to the returned barrier (the ack point) *)
  f_abort : txn:int -> unit;
  f_prepare : txn:int -> coordinator:int -> Server.update list -> [ `Vote_yes | `Vote_no ];
  f_decide : txn:int -> [ `Commit | `Abort ] -> unit;
  f_alloc_segment : area:int -> npages:int -> Bess_storage.Seg_addr.t;
  f_free_segment : Bess_storage.Seg_addr.t -> unit;
  f_register_sink : (Lock_mgr.resource -> Lock_mode.t -> Server.callback_reply) -> unit;
}

(* The one verdict -> exception mapping: every implementation of [t]
   turns a refused lock this way. *)
type refusal = [ `Blocked | `Deadlock | `Timeout ]

let refuse : [< refusal ] -> 'a = function
  | `Blocked -> raise Would_block
  | `Deadlock -> raise Deadlock_abort
  | `Timeout -> raise Lock_timeout

let check = function `Granted -> () | #refusal as v -> refuse v

(* The callback rule of every caching client (section 3's callback
   locking). While [busy ()] -- a transaction is open, so the page may be
   in use -- refuse: the requester blocks and retries. Otherwise [drop]
   the cached page and give it up. A lock on anything but a page names
   nothing cached. *)
let page_sink ~busy ~drop (r : Lock_mgr.resource) (_ : Lock_mode.t) : Server.callback_reply =
  if not (Lock_mgr.is_page r) then `Dropped
  else if busy () then `Refused
  else begin
    drop { Page_id.area = Lock_mgr.major r; page = Lock_mgr.minor r };
    `Dropped
  end

(* Direct, same-machine embedding. Each operation still opens a
   client.request span — the co-located analogue of the net.rpc span a
   remote fetcher gets from the transport — so timelines have the same
   shape in both modes. *)
let direct ~client_id (server : Server.t) : t =
  let span op f = Bess_obs.Span.with_span ~kind:"client.request" ~attrs:[ ("op", op) ] f in
  let page_size = Bess_cache.Cache.page_size (Store.cache (Server.store server)) in
  {
    client_id;
    f_begin = (fun () -> span "begin" @@ fun () -> Server.begin_txn server ~client:client_id);
    f_lock =
      (fun ~txn r mode ->
        span "lock" @@ fun () -> check (Server.lock server ~txn r mode));
    f_fetch_segment =
      (fun ~txn seg ~mode ->
        span "fetch_segment" @@ fun () ->
        match Server.fetch_segment server ~txn seg ~mode with
        | `Pages pages -> pages
        | #refusal as v -> refuse v);
    f_fetch_page =
      (fun ~txn page ~mode ~into ->
        span "fetch_page" @@ fun () ->
        if Bytes.length into <> page_size then
          invalid_arg "Fetcher.f_fetch_page: buffer is not one server page long";
        check
          (Server.lock server ~txn (Lock_mgr.page_resource ~area:page.area ~page:page.page) mode);
        Server.read_into server page ~off:0 into ~dst_off:0 ~len:(Bytes.length into));
    f_commit =
      (fun ~txn updates ->
        span "commit" @@ fun () ->
        match Server.commit_client server ~txn ~updates with
        | `Committed -> ()
        | `Lock_violation -> failwith "commit rejected: lock violation");
    f_commit_begin =
      (fun ~txn updates ->
        match span "commit" (fun () -> Server.commit_client_begin server ~txn ~updates) with
        | `Committed ticket ->
            fun () -> span "commit_await" (fun () -> Server.await_commit server ticket)
        | `Lock_violation -> failwith "commit rejected: lock violation");
    f_abort = (fun ~txn -> span "abort" @@ fun () -> Server.abort_client server ~txn);
    f_prepare =
      (fun ~txn ~coordinator updates ->
        span "prepare" @@ fun () -> Server.prepare server ~txn ~coordinator ~updates);
    f_decide =
      (fun ~txn decision ->
        span "decide" @@ fun () ->
        match decision with
        | `Commit -> Server.commit_prepared server ~txn
        | `Abort -> Server.abort_prepared server ~txn);
    f_alloc_segment =
      (fun ~area ~npages ->
        match Store.alloc_segment (Server.store server) ~area ~npages with
        | Some addr -> addr
        | None -> failwith "Fetcher: storage area out of space");
    f_free_segment =
      (fun addr -> Bess_storage.Area_set.free (Store.areas (Server.store server)) addr);
    f_register_sink =
      (fun sink -> Server.connect_client server ~client:client_id ~sink:(fun r m -> sink r m));
  }
