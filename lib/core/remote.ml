(* Remote clients: applications on a node with neither a BeSS server nor a
   node server (node 1 of Figure 2). Every operation crosses the
   simulated network; per section 3, such clients cache data and locks
   only for the duration of a transaction -- at commit/abort the session
   should be discarded or its caches dropped.

   The wire protocol mirrors {!Fetcher.t} one message kind per operation.
   Payload costs are estimated from the page/update bytes carried so the
   transport accounting reflects real traffic. *)

module Page_id = Bess_cache.Page_id
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode
module Net = Bess_net.Net
module Int_map = Bess_util.Int_map
module Int_store = Bess_util.Int_store
module Int_tbl = Bess_util.Int_tbl

(* Mutating requests carry a per-client request id ([rid]) so the server
   can deduplicate deliveries: with injected drops a client retries
   blindly, and only the (src, rid) key tells a lost *request* (handler
   never ran — execute it) from a lost *reply* (it ran — replay the
   remembered answer). Reads (Lock and the fetches) are naturally
   idempotent under strict 2PL regrants and go un-keyed; [rid = 0]
   means "no id". Any positive rid is its own key; a negative one is
   refused with [Invalid_argument] before the handler runs. *)
type req =
  | Begin of { rid : int }
  | Lock of { txn : int; r : Lock_mgr.resource; mode : Lock_mode.t }
  | Fetch_segment of { txn : int; seg : Bess_storage.Seg_addr.t; mode : Lock_mode.t }
  | Fetch_page of { txn : int; page : Page_id.t; mode : Lock_mode.t }
  | Commit of { rid : int; txn : int; updates : Server.update list }
  | Commit_begin of { rid : int; txn : int; updates : Server.update list }
      (* group-commit: log + release, ack deferred to Await_commit *)
  | Await_commit of { rid : int; ticket : int }
  | Abort of { rid : int; txn : int }
  | Prepare of { rid : int; txn : int; coordinator : int; updates : Server.update list }
  | Decide of { rid : int; txn : int; commit : bool }
  | Query_decision of { rid : int; shard : int; txn : int }
      (* participant -> coordinator: the fate of a recovered in-doubt txn *)
  | Alloc of { rid : int; area : int; npages : int }
  | Free of { rid : int; seg : Bess_storage.Seg_addr.t }
  | Callback of { r : Lock_mgr.resource; mode : Lock_mode.t } (* server -> client *)

type resp =
  | R_txn of int
  | R_ticket of int (* server-side durability ticket handle *)
  | R_verdict of [ `Granted | `Blocked | `Deadlock | `Timeout ]
  | R_pages of Bytes.t list
  | R_page of Bytes.t
  | R_ok
  | R_vote of bool
  | R_decision of bool (* true = commit; false = (presumed) abort *)
  | R_seg of Bess_storage.Seg_addr.t
  | R_callback of Server.callback_reply
  | R_error of string

let update_bytes (us : Server.update list) =
  List.fold_left (fun acc (u : Server.update) -> acc + (2 * Bytes.length u.after) + 16) 0 us

(* The rid rides in the 16-byte header allowance every message already
   pays, so arming the fault plane changes no payload accounting. *)
let req_cost = function
  | Begin _ -> 16
  | Lock _ -> 32
  | Fetch_segment _ -> 32
  | Fetch_page _ -> 24
  | Commit { updates; _ } -> 16 + update_bytes updates
  | Commit_begin { updates; _ } -> 16 + update_bytes updates
  | Await_commit _ -> 16
  | Abort _ -> 16
  | Prepare { updates; _ } -> 24 + update_bytes updates
  | Decide _ -> 16
  | Query_decision _ -> 24
  | Alloc _ -> 16
  | Free _ -> 24
  | Callback _ -> 32

let resp_cost = function
  | R_txn _ | R_ticket _ | R_verdict _ | R_ok | R_vote _ | R_decision _ | R_callback _ -> 16
  | R_pages pages -> List.fold_left (fun acc p -> acc + Bytes.length p) 16 pages
  | R_page p -> 16 + Bytes.length p
  | R_seg _ -> 24
  | R_error s -> 16 + String.length s

type network = (req, resp) Net.t

let network () = Net.create ~req_cost ~resp_cost ()

(* How many (src, rid) -> resp answers the server remembers for replay;
   old entries age out FIFO. Far beyond any plausible retry window. *)
let dedup_window = 4096

(* Expose a server on the network. Callback sinks reach clients by their
   endpoint id through the same transport. *)
let serve (net : network) (server : Server.t) =
  (* Outstanding group-commit tickets of remote clients, keyed by the
     wire handle returned from Commit_begin. *)
  let tickets : Bess_wal.Group_commit.ticket Int_tbl.t = Int_tbl.create 8 in
  let next_ticket = ref 1 in
  (* Exactly-once execution of mutating requests: remember each keyed
     request's answer and replay it on redelivery. A handler that raises
     remembers nothing, so a retry after a dropped *request* (or a
     failed execution) runs it for real. The answers live in a ring of
     [dedup_window] slots, in arrival order, each with its (src, rid):
     once full, the slot a new answer takes holds the oldest, which ages
     out. Each endpoint has an [Int_map] from its rids to their slots, so
     a rid of any size is its own key: a rid packed beside the endpoint
     would have a fixed field to outgrow, and the 2PC coordinator's rids
     move on by 128 million at each of its restarts. *)
  let rids_by_src : Int_map.t Int_store.t = Int_store.create 64 in
  let rids_of src =
    let i = Int_store.index rids_by_src src in
    if i >= 0 then Int_store.get rids_by_src i
    else begin
      let rids = Int_map.create 16 in
      Int_store.add rids_by_src src rids;
      rids
    end
  in
  let ring_src = Array.make dedup_window 0 and ring_rid = Array.make dedup_window 0 in
  let ring_resps = Array.make dedup_window R_ok in
  let arrivals = ref 0 in
  (* Every arrival adds one key and, once the ring is full, ages one
     out. *)
  Bess_obs.Registry.register_gauge "server" "server.dedup_entries" (fun () ->
      Stdlib.min !arrivals dedup_window);
  let dedup ~src ~rid f =
    if rid = 0 then f ()
    else begin
      if rid < 0 then invalid_arg "Remote.serve: negative request id";
      let rids = rids_of src in
      let i = Int_map.find rids rid in
      if i >= 0 then begin
        Bess_util.Stats.incr (Server.stats server) "server.dup_replays";
        ring_resps.(i)
      end
      else begin
        let resp = f () in
        let slot = !arrivals mod dedup_window in
        if !arrivals >= dedup_window then Int_map.remove (rids_of ring_src.(slot)) ring_rid.(slot);
        ring_src.(slot) <- src;
        ring_rid.(slot) <- rid;
        ring_resps.(slot) <- resp;
        Int_map.replace rids rid slot;
        incr arrivals;
        resp
      end
    end
  in
  let dispatch ~src req =
    match req with
    | Begin { rid } -> dedup ~src ~rid (fun () -> R_txn (Server.begin_txn server ~client:src))
    | Lock { txn; r; mode } -> R_verdict (Server.lock server ~txn r mode)
    | Fetch_segment { txn; seg; mode } -> (
        match Server.fetch_segment server ~txn seg ~mode with
        | `Pages pages -> R_pages pages
        | (`Blocked | `Deadlock | `Timeout) as v -> R_verdict v)
    | Fetch_page { txn; page; mode } -> (
        match
          Server.lock server ~txn (Lock_mgr.page_resource ~area:page.area ~page:page.page) mode
        with
        | `Granted -> R_page (Server.read_page server page)
        | (`Blocked | `Deadlock | `Timeout) as v -> R_verdict v)
    | Commit { rid; txn; updates } ->
        dedup ~src ~rid (fun () ->
            match Server.commit_client server ~txn ~updates with
            | `Committed -> R_ok
            | `Lock_violation -> R_error "lock violation")
    | Commit_begin { rid; txn; updates } ->
        (* The dedup key is what makes a duplicated Commit_begin yield
           ONE durability ticket: the replayed answer carries the same
           wire handle, so the group-commit scheduler sees one commit. *)
        dedup ~src ~rid (fun () ->
            match Server.commit_client_begin server ~txn ~updates with
            | `Committed ticket ->
                let h = !next_ticket in
                next_ticket := h + 1;
                Int_tbl.replace tickets h ticket;
                R_ticket h
            | `Lock_violation -> R_error "lock violation")
    | Await_commit { rid; ticket } ->
        dedup ~src ~rid (fun () ->
            match Int_tbl.find_opt tickets ticket with
            | Some tk ->
                Server.await_commit server tk;
                (* Drop the handle only once the wait succeeded: a retry
                   after a failed await must still find its ticket. *)
                Int_tbl.remove tickets ticket;
                R_ok
            | None -> R_error "unknown commit ticket")
    | Abort { rid; txn } ->
        dedup ~src ~rid (fun () ->
            Server.abort_client server ~txn;
            R_ok)
    | Prepare { rid; txn; coordinator; updates } ->
        dedup ~src ~rid (fun () ->
            match Server.prepare server ~txn ~coordinator ~updates with
            | `Vote_yes -> R_vote true
            | `Vote_no -> R_vote false)
    | Decide { rid; txn; commit } ->
        dedup ~src ~rid (fun () ->
            if commit then Server.commit_prepared server ~txn
            else Server.abort_prepared server ~txn;
            R_ok)
    | Alloc { rid; area; npages } ->
        dedup ~src ~rid (fun () ->
            match Store.alloc_segment (Server.store server) ~area ~npages with
            | Some addr -> R_seg addr
            | None -> R_error "out of space")
    | Free { rid; seg } ->
        dedup ~src ~rid (fun () ->
            Bess_storage.Area_set.free (Store.areas (Server.store server)) seg;
            R_ok)
    | Query_decision _ -> R_error "servers do not answer decision queries"
    | Callback _ -> R_error "servers do not accept callbacks"
  in
  Net.register net ~id:(Server.id server) (fun ~src req ->
      (* Injected storage failures surface as typed protocol errors at
         the trust boundary instead of unwinding through the transport:
         the client sees a failed request it may retry, never a foreign
         exception. *)
      try dispatch ~src req
      with Bess_fault.Fault.Injected msg -> R_error ("injected fault: " ^ msg))

exception Remote_error of string

(* The server endpoint is gone from the network — a typed condition the
   application can handle, not a transport exception leaking through. *)
exception Unreachable of int

(* Every attempt timed out; carries the destination endpoint. *)
exception Exhausted of int

(* Bounded exponential backoff on the simulated clock: 200 µs doubling
   to a 12.8 ms cap, at most 8 attempts before [Exhausted]. *)
let backoff_base_ns = 200_000
let backoff_max_shift = 6
let max_attempts = 8

(* The retrying call every client of the wire shares (the remote
   fetcher, the shard router, the 2PC coordinator). On [Net.Timeout]
   the SAME request (same rid — the server dedups re-execution) is
   resent after a backoff that only advances the simulated clock. Never
   retries while no fault site is armed. *)
let call (net : network) ~src ~dst req =
  let rec go attempt =
    match Net.call net ~src ~dst req with
    | resp -> resp
    | exception Net.Timeout _ ->
        if attempt >= max_attempts then raise (Exhausted dst)
        else begin
          let delay = backoff_base_ns * (1 lsl Stdlib.min (attempt - 1) backoff_max_shift) in
          Bess_obs.Span.with_span ~kind:"client.backoff"
            ~attrs:
              (if Bess_obs.Span.enabled () then [ ("attempt", string_of_int attempt) ] else [])
            (fun () -> Bess_obs.Span.advance_ns delay);
          Bess_util.Stats.incr (Net.stats net) "net.client_retries";
          Bess_util.Stats.add (Net.stats net) "net.client_backoff_ns" delay;
          go (attempt + 1)
        end
    | exception Net.No_such_endpoint id -> raise (Unreachable id)
  in
  go 1

let fetcher (net : network) ~client_id ~server_id : Fetcher.t =
  (* Request ids are per-fetcher; the server keys them by (src, rid), so
     clients never collide with each other. *)
  let next_rid = ref 0 in
  let rid () =
    incr next_rid;
    !next_rid
  in
  let call req =
    try call net ~src:client_id ~dst:server_id req
    with Exhausted _ -> raise (Remote_error "request timed out: retries exhausted")
  in
  (* Every answer an operation did not expect: a refused lock, the
     server's error, or a protocol mismatch. *)
  let fail = function
    | R_verdict (#Fetcher.refusal as v) -> Fetcher.refuse v
    | R_error e -> raise (Remote_error e)
    | _ -> raise (Remote_error "protocol mismatch")
  in
  {
    client_id;
    f_begin = (fun () -> match call (Begin { rid = rid () }) with R_txn t -> t | r -> fail r);
    f_lock =
      (fun ~txn r mode ->
        match call (Lock { txn; r; mode }) with R_verdict `Granted -> () | r -> fail r);
    f_fetch_segment =
      (fun ~txn seg ~mode ->
        match call (Fetch_segment { txn; seg; mode }) with R_pages pages -> pages | r -> fail r);
    f_fetch_page =
      (fun ~txn page ~mode ~into ->
        match call (Fetch_page { txn; page; mode }) with
        | R_page p ->
            if Bytes.length into <> Bytes.length p then
              invalid_arg "Fetcher.f_fetch_page: buffer is not one server page long";
            Bytes.blit p 0 into 0 (Bytes.length into)
        | r -> fail r);
    f_commit =
      (fun ~txn updates ->
        match call (Commit { rid = rid (); txn; updates }) with R_ok -> () | r -> fail r);
    f_commit_begin =
      (fun ~txn updates ->
        (* Deferred durability costs one extra small message pair (the
           explicit ack poll); the payload crosses the wire once. *)
        match call (Commit_begin { rid = rid (); txn; updates }) with
        | R_ticket h -> (
            let await_rid = rid () in
            fun () ->
              match call (Await_commit { rid = await_rid; ticket = h }) with
              | R_ok -> ()
              | r -> fail r)
        | r -> fail r);
    f_abort = (fun ~txn -> ignore (call (Abort { rid = rid (); txn })));
    f_prepare =
      (fun ~txn ~coordinator updates ->
        match call (Prepare { rid = rid (); txn; coordinator; updates }) with
        | R_vote true -> `Vote_yes
        | R_vote false -> `Vote_no
        | r -> fail r);
    f_decide =
      (fun ~txn decision ->
        ignore (call (Decide { rid = rid (); txn; commit = decision = `Commit })));
    f_alloc_segment =
      (fun ~area ~npages ->
        match call (Alloc { rid = rid (); area; npages }) with R_seg s -> s | r -> fail r);
    f_free_segment = (fun seg -> ignore (call (Free { rid = rid (); seg })));
    f_register_sink =
      (fun sink ->
        (* The client listens for server-initiated callbacks on its own
           endpoint. *)
        Net.register net ~id:client_id (fun ~src:_ req ->
            match req with
            | Callback { r; mode } -> R_callback (sink r mode)
            | _ -> R_error "clients only accept callbacks"));
  }

(* Server-initiated callback over the wire. A lost callback (injected
   drop) maps to [`Refused] — the requester keeps blocking and will ask
   again — NEVER to [`Dropped], which would wrongly invalidate a live
   client's cached copy. A vanished endpoint is the opposite: the client
   is gone and its cache with it, so [`Dropped] is the truth. *)
let wire_callback (net : network) ~server_id ~client_id r mode =
  match Net.call net ~src:server_id ~dst:client_id (Callback { r; mode }) with
  | R_callback reply -> reply
  | _ -> `Refused
  | exception Net.Timeout _ -> `Refused
  | exception Net.No_such_endpoint _ -> `Dropped

(* A fetcher to [db]'s server whose callbacks route through the network. *)
let connect (net : network) ~client_id (db : Db.t) =
  Server.connect_client (Db.server db) ~client:client_id
    ~sink:(wire_callback net ~server_id:(Db.db_id db) ~client_id);
  fetcher net ~client_id ~server_id:(Db.db_id db)

(* Attach a further database to an existing remote session: operations on
   it cross the wire to its own server (distributed transactions commit
   with 2PC, coordinated by the session's first server). *)
let attach (net : network) ~client_id session (db : Db.t) =
  let fetcher = connect net ~client_id db in
  Session.attach_db session ~area_ids:(Db.area_ids db) ~db_id:(Db.db_id db)
    ~catalog:(Db.catalog db) ~fetcher ~default_area:(Db.default_area db) ()

(* A session over the network: an application on a bare node. *)
let session (net : network) ~client_id (db : Db.t) =
  let fetcher = connect net ~client_id db in
  Session.create ~page_size:(Db.page_size db) ~area_ids:(Db.area_ids db) ~db_id:(Db.db_id db)
    ~catalog:(Db.catalog db) ~fetcher ~default_area:(Db.default_area db) ()
