(* The shard ring: N single-server databases behind one simulated
   network, partitioned by the OID host field, plus the presumed-abort
   2PC coordinator that makes cross-shard transactions atomic.

   Shard i runs the database with host (and endpoint, and db_id) i+1 and
   owns a committed working set of data pages. Everything a client does
   crosses the wire: begin, X-lock-and-fetch, and the commit itself
   through {!Twopc.commit} -- matching the paper's multi-server
   configuration where "a database may span storage areas of several
   BeSS servers" and distributed commits run two-phase. *)

module Page_id = Bess_cache.Page_id
module Lock_mode = Bess_lock.Lock_mode
module Remote = Bess.Remote
module Stats = Bess_util.Stats

type t = {
  net : Remote.network;
  dbs : Bess.Db.t array;
  pages : Page_id.t array array; (* per shard, in popularity order *)
  coord : Twopc.t;
  rids : (int, int ref) Hashtbl.t; (* per-client request-id streams *)
  (* (endpoint, txn) of the most recent {!txn} attempt's participants:
     harness introspection, so a torture test can ask the coordinator
     about the exact transactions a crashed commit left behind. *)
  mutable last_parts : (int * int) list;
}

(* The coordinator's endpoint, clear of the shards' 1..n. *)
let coord_id = 900

let create ?(n = 2) ?(pages_per_shard = 8) ?(page_size = 4096) ?coord_log_path ?policy
    ?per_message_ns ?per_byte_ns () =
  if n <= 0 then invalid_arg "Shard.create: need at least one shard";
  let net = Remote.network ?per_message_ns ?per_byte_ns () in
  let dbs =
    Array.init n (fun i ->
        Bess.Db.create_memory ~page_size ~host:(i + 1) ~db_id:(i + 1) ())
  in
  Array.iter (fun db -> Remote.serve net (Bess.Db.server db)) dbs;
  let pages =
    Array.map (fun db -> Bess_sched.Driver.seed_working_set db ~n_pages:pages_per_shard) dbs
  in
  let coord = Twopc.create ~id:coord_id ?log_path:coord_log_path ?policy ~net () in
  { net; dbs; pages; coord; rids = Hashtbl.create 64; last_parts = [] }

let n_shards t = Array.length t.dbs
let net t = t.net
let coord t = t.coord
let db t i = t.dbs.(i)
let server t i = Bess.Db.server t.dbs.(i)
let endpoint t i = Bess.Db.db_id t.dbs.(i)
let pages t i = t.pages.(i)
let pages_per_shard t = Array.length t.pages.(0)

(* ---- Routing by the OID host field ---- *)

let shard_of_host t ~host =
  if host <= 0 then invalid_arg "Shard.shard_of_host: hosts are positive";
  (host - 1) mod Array.length t.dbs

let shard_of_oid t (oid : Bess.Oid.t) = shard_of_host t ~host:oid.host
let server_of_oid t oid = server t (shard_of_oid t oid)
let endpoint_of_oid t oid = endpoint t (shard_of_oid t oid)

let rid t ~client =
  let r =
    match Hashtbl.find_opt t.rids client with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.rids client r;
        r
  in
  incr r;
  !r

(* ---- Cross-shard transactions over the wire ---- *)

exception Protocol of string

(* One global transaction: begin + X-fetch on every involved shard, then
   two-phase commit. [writes] is [(shard, page rank, offset, value)].
   [`Blocked] means some page lock was unavailable (or a begin/fetch was
   lost to faults); every transaction this attempt began has been
   aborted and the caller may retry. {!Twopc.Crashed} propagates: the
   participants are prepared and their fate belongs to the recovered
   coordinator, so nothing is rolled back here. *)
let txn ?chaos t ~client ~(writes : (int * int * int * Bytes.t) list) () =
  (match writes with [] -> invalid_arg "Shard.txn: no writes" | _ -> ());
  let by_shard =
    List.sort_uniq compare (List.map (fun (s, _, _, _) -> s) writes)
    |> List.map (fun s -> (s, List.filter_map
                               (fun (s', rank, off, v) -> if s' = s then Some (rank, off, v) else None)
                               writes))
  in
  let begun = ref [] in
  let abort_all () =
    List.iter
      (fun (ep, tx) ->
        try ignore (Remote.call t.net ~src:client ~dst:ep
                      (Remote.Abort { rid = rid t ~client; txn = tx }))
        with Remote.Unreachable _ | Remote.Exhausted _ -> ())
      !begun
  in
  let fetch_x ~ep ~tx pid =
    match Remote.call t.net ~src:client ~dst:ep
            (Remote.Fetch_page { txn = tx; page = pid; mode = Lock_mode.X })
    with
    | Remote.R_page bytes -> `Page bytes
    | Remote.R_verdict (`Blocked | `Deadlock | `Timeout) -> `Blocked
    | Remote.R_error _ -> `Blocked
    | _ -> raise (Protocol "fetch_page")
  in
  match
    List.map
      (fun (sidx, ws) ->
        let ep = endpoint t sidx in
        let tx =
          match Remote.call t.net ~src:client ~dst:ep (Remote.Begin { rid = rid t ~client }) with
          | Remote.R_txn x -> x
          | _ -> raise (Protocol "begin")
        in
        begun := (ep, tx) :: !begun;
        let updates =
          List.map
            (fun (rank, offset, value) ->
              let pid = t.pages.(sidx).(rank) in
              match fetch_x ~ep ~tx pid with
              | `Page bytes ->
                  { Bess.Server.page = pid;
                    offset;
                    before = Bytes.sub bytes offset (Bytes.length value);
                    after = value }
              | `Blocked -> raise Exit)
            ws
        in
        (ep, tx, updates))
      by_shard
  with
  | parts ->
      t.last_parts <- List.map (fun (ep, tx, _) -> (ep, tx)) parts;
      (Twopc.commit ?chaos t.coord ~parts :> [ `Committed | `Aborted | `Blocked ])
  | exception Exit ->
      abort_all ();
      `Blocked
  | exception (Remote.Unreachable _ | Remote.Exhausted _) ->
      abort_all ();
      `Blocked

(* ---- In-doubt resolution (participant recovery protocol) ---- *)

(* Ask the coordinator for the fate of every prepared transaction:
   decision present => commit, absent => abort (presumed). A query that
   cannot be answered (coordinator down, messages lost) leaves the
   transaction prepared, locks held, for a later round. Returns
   (resolved, still prepared). *)
let resolve_in_doubt t =
  let resolved = ref 0 and unresolved = ref 0 in
  Array.iter
    (fun dbx ->
      let srv = Bess.Db.server dbx in
      let ep = Bess.Db.db_id dbx in
      List.iter
        (fun (tx, coord_ep) ->
          let dst = if coord_ep >= 0 then coord_ep else Twopc.id t.coord in
          match
            Remote.call t.net ~src:ep ~dst (Remote.Query_decision { rid = 0; shard = ep; txn = tx })
          with
          | Remote.R_decision true ->
              Bess.Server.commit_prepared srv ~txn:tx;
              incr resolved
          | Remote.R_decision false ->
              Bess.Server.abort_prepared srv ~txn:tx;
              incr resolved
          | _ -> incr unresolved
          | exception (Remote.Unreachable _ | Remote.Exhausted _) -> incr unresolved)
        (Bess.Server.prepared_txns srv))
    t.dbs;
  (!resolved, !unresolved)

(* ---- Crash plumbing for the chaos harness ---- *)

let crash_shard t i = Bess.Server.crash (server t i)

(* Recover a crashed shard: ARIES restart (in-doubt transactions come
   back prepared, X locks reacquired) and a fresh [Remote.serve] so the
   volatile dedup/ticket tables start empty, as they would in a real
   process restart. *)
let recover_shard t i =
  let srv = server t i in
  let outcome = Bess.Server.recover srv in
  Remote.serve t.net srv;
  outcome

let locks_held t =
  Array.fold_left
    (fun acc dbx -> acc + Bess_lock.Lock_mgr.n_locks (Bess.Server.locks (Bess.Db.server dbx)))
    0 t.dbs

let in_doubt t =
  Array.fold_left
    (fun acc dbx -> acc + List.length (Bess.Server.prepared_txns (Bess.Db.server dbx)))
    0 t.dbs

let last_parts t = t.last_parts
let page_image t i rank = Bess.Server.read_page (server t i) t.pages.(i).(rank)

(* CRC over every shard's working set in shard/rank order: the
   byte-for-byte replay witness. *)
let images_crc t =
  (* Every shard shares one page size, so one buffer serves them all. *)
  let page_size = Bess_cache.Cache.page_size (Bess.Store.cache (Bess.Server.store (server t 0))) in
  let buf = Bytes.create page_size in
  let crc = ref Int32.zero in
  Array.iteri
    (fun i pages ->
      let srv = server t i in
      Array.iter
        (fun page ->
          Bess.Server.read_into srv page ~off:0 buf ~dst_off:0 ~len:page_size;
          crc := Bess_util.Crc32.update !crc buf 0 page_size)
        pages)
    t.pages;
  Bess_util.Crc32.to_int !crc
