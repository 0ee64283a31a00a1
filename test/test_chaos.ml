(* Chaos torture harness for the fault plane: deterministic fault
   injection swept over many seeds against a multi-client remote commit
   workload. The durability contract under drops, duplicates, delays and
   disk faults:
   - every ACKED commit survives crash + recovery;
   - unacknowledged work leaves no phantoms: a slot only ever holds a
     value some transaction really wrote, never one older than the last
     acknowledged commit;
   - no locks leak once every client is done, aborted retries included;
   - any seed replays its exact fault schedule.
   Plus the exactly-once regression (a dropped Commit_begin reply and
   the client's blind retry yield ONE committed transaction and ONE
   durability ticket), deterministic per-site fault tests, the
   recover-twice no-op check and the torn-CRC reopen check. *)

module Fault = Bess_fault.Fault
module Net = Bess_net.Net
module Page_id = Bess_cache.Page_id
module Lock_mode = Bess_lock.Lock_mode
module Lock_mgr = Bess_lock.Lock_mgr
module Log = Bess_wal.Log
module Log_record = Bess_wal.Log_record
module Gc = Bess_wal.Group_commit
module F = Bess.Fetcher

let data_page seg =
  { Page_id.area = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.area;
    page = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.first_page }

(* A memory db with one committed page, served over the simulated wire. *)
let setup_remote ~db_id =
  let db = Bess.Db.create_memory ~db_id () in
  let server = Bess.Db.server db in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  let net = Bess.Remote.network () in
  Bess.Remote.serve net server;
  (db, server, net, data_page seg)

let i64 v =
  let b = Bytes.create 8 in
  Bess_util.Codec.set_i64 b 0 v;
  b

(* Fetch [page] X-locked into a fresh page buffer. *)
let fetch_x (f : F.t) ~txn page =
  let into = Bytes.create 4096 in
  f.F.f_fetch_page ~txn page ~mode:Lock_mode.X ~into;
  into

(* ---- The torture scenario ------------------------------------------------ *)

let nclients = 3
let nrounds = 4

(* One run: [nclients] remote clients take [nrounds] turns each writing a
   fresh value into their own 8-byte slot of a shared (page-locked) page,
   committing through the group-commit barrier. Ack classification:
   - barrier returned: ACKED, durable by contract;
   - barrier or commit raised: INDETERMINATE -- the commit point may have
     been passed (reply lost, force failed after the append), so the
     value may or may not survive. Prefix durability resolves earlier
     indeterminates the moment a later commit on the slot is acked.
   Returns the per-site fault schedules (the reproducibility witness). *)
let run_torture ~seed ~profile =
  Bess_obs.Registry.with_fresh @@ fun () ->
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let db, server, net, page = setup_remote ~db_id:900 in
  Bess.Server.set_group_policy server (Gc.Group_n 2);
  let fetchers =
    Array.init nclients (fun i ->
        Bess.Remote.fetcher net ~client_id:(2000 + i) ~server_id:(Bess.Db.db_id db))
  in
  Fault.seed seed;
  Fault.apply_profile (List.assoc profile Fault.profiles);
  let acked = Array.make nclients 0 in
  let maybes = Array.make nclients [] in
  for round = 1 to nrounds do
    for i = 0 to nclients - 1 do
      let f = fetchers.(i) in
      let v = (seed * 1000) + (i * 100) + round in
      match f.F.f_begin () with
      | exception _ -> () (* begin lost for good: nothing started *)
      | txn -> (
          match
            (* X-lock the page and read the current slot as the before
               image, exactly like a caching client ships updates. *)
            let bytes = fetch_x f ~txn page in
            ({ Bess.Server.page; offset = i * 8;
               before = Bytes.sub bytes (i * 8) 8; after = i64 v }
              : Bess.Server.update)
          with
          | exception _ -> ( try f.F.f_abort ~txn with _ -> ())
          | u -> (
              match f.F.f_commit_begin ~txn [ u ] with
              | barrier -> (
                  match barrier () with
                  | () ->
                      acked.(i) <- v;
                      maybes.(i) <- []
                  | exception _ ->
                      (* commit point passed; durability unconfirmed *)
                      maybes.(i) <- v :: maybes.(i))
              | exception _ ->
                  (* maybe before, maybe after the commit point: the
                     abort is idempotent and rolls back iff it was
                     before, so the value stays merely possible *)
                  maybes.(i) <- v :: maybes.(i);
                  (try f.F.f_abort ~txn with _ -> ())))
    done
  done;
  let leaked = Lock_mgr.n_locks (Bess.Server.locks server) in
  if leaked <> 0 then
    Alcotest.failf "seed %d (%s): %d locks leaked after all clients finished" seed profile
      leaked;
  let schedules =
    List.map (fun (site, _) -> (site, Fault.schedule site)) (Fault.configured ())
  in
  (* Disarm before the crash: the invariant is about what the faulty
     workload left durable, not about faults during recovery itself. *)
  Fault.reset ();
  Bess.Server.crash server;
  ignore (Bess.Server.recover server);
  let bytes = Bess.Server.read_page server page in
  for i = 0 to nclients - 1 do
    let v = Bess_util.Codec.get_i64 bytes (i * 8) in
    let allowed = acked.(i) :: maybes.(i) in
    if not (List.mem v allowed) then
      Alcotest.failf "seed %d (%s): slot %d recovered %d, allowed {%s} (last ack %d)" seed
        profile i v
        (String.concat "," (List.map string_of_int allowed))
        acked.(i)
  done;
  schedules

(* 200 distinct seeds, alternating a network-only and a network+disk
   profile. The fire count guards against the sweep silently testing
   nothing (a profile rename, a seed that never fires). *)
let test_torture_sweep () =
  let total_fires = ref 0 in
  for seed = 1 to 200 do
    let profile = if seed mod 2 = 0 then "chaos" else "flaky-net" in
    let schedules = run_torture ~seed ~profile in
    List.iter (fun (_, ords) -> total_fires := !total_fires + List.length ords) schedules
  done;
  Alcotest.(check bool) "faults actually fired across the sweep" true (!total_fires > 100)

let test_schedule_reproducible () =
  List.iter
    (fun seed ->
      let a = run_torture ~seed ~profile:"chaos" in
      let b = run_torture ~seed ~profile:"chaos" in
      if a <> b then Alcotest.failf "seed %d: fault schedule not reproducible" seed;
      Alcotest.(check bool) "schedules recorded for every site" true (List.length a > 0))
    [ 1; 7; 42; 137; 9999 ]

let prop_torture =
  QCheck.Test.make ~name:"torture invariants hold for arbitrary fault seeds" ~count:50
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, net_only) ->
      ignore
        (run_torture ~seed:(seed + 1) ~profile:(if net_only then "flaky-net" else "chaos"));
      true)

(* ---- Exactly-once: dropped Commit_begin reply ---------------------------- *)

let test_dropped_commit_reply_exactly_once () =
  Bess_obs.Registry.with_fresh @@ fun () ->
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let db, server, net, page = setup_remote ~db_id:901 in
  Bess.Server.set_group_policy server (Gc.Group_n 2);
  let f = Bess.Remote.fetcher net ~client_id:2100 ~server_id:(Bess.Db.db_id db) in
  let log = Bess.Store.log (Bess.Server.store server) in
  let tickets = Bess_util.Stats.histogram (Log.stats log) "wal.group.commits_per_force" in
  let tickets0 = Bess_util.Histogram.sum tickets in
  let forces0 = Bess_util.Histogram.count tickets in
  let commits0 = Bess_util.Stats.get (Bess.Server.stats server) "server.commits" in
  Fault.seed 7;
  (* Calls: 1 = Begin, 2 = Fetch_page, 3 = Commit_begin. Drop exactly the
     Commit_begin REPLY: the handler ran, the ticket exists, the client
     cannot know -- its retry must be deduplicated into a replay. *)
  Fault.configure "net.drop_reply" (Fault.Plan [ 3 ]);
  let txn = f.F.f_begin () in
  let bytes = fetch_x f ~txn page in
  let u : Bess.Server.update =
    { page; offset = 0; before = Bytes.sub bytes 0 8; after = i64 4242 }
  in
  let barrier = f.F.f_commit_begin ~txn [ u ] in
  barrier ();
  Alcotest.(check (list int)) "the planned drop happened" [ 3 ]
    (Fault.schedule "net.drop_reply");
  Alcotest.(check int) "client retried once" 1
    (Bess_util.Stats.get (Net.stats net) "net.client_retries");
  Alcotest.(check int) "server replayed the duplicate" 1
    (Bess_util.Stats.get (Bess.Server.stats server) "server.dup_replays");
  Alcotest.(check int) "exactly one committed transaction" 1
    (Bess_util.Stats.get (Bess.Server.stats server) "server.commits" - commits0);
  Alcotest.(check int) "exactly one durability ticket" 1
    (Bess_util.Histogram.sum tickets - tickets0);
  Alcotest.(check int) "released by exactly one force" 1
    (Bess_util.Histogram.count tickets - forces0);
  Fault.reset ();
  Bess.Server.crash server;
  ignore (Bess.Server.recover server);
  Alcotest.(check int) "the acked value is durable" 4242
    (Bess_util.Codec.get_i64 (Bess.Server.read_page server page) 0)

(* ---- Retry exhaustion ---------------------------------------------------- *)

(* With every reply dropped, one call makes 8 attempts and backs off 7
   times: 200 µs doubling to the 12.8 ms cap, 25.4 ms in all, each
   backoff a [client.backoff] span carrying its attempt number. The
   remote fetcher then raises [Remote_error]; a shard-plane
   [Remote.call] raises [Exhausted] with the destination. *)
let test_retry_exhaustion () =
  Bess_obs.Registry.with_fresh @@ fun () ->
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let arm () =
    Fault.seed 1;
    match Fault.profile_of_string "net.drop_reply=every:1" with
    | Ok sites -> Fault.apply_profile sites
    | Error e -> Alcotest.fail e
  in
  let exhausts what net call ~raised =
    let stat name = Bess_util.Stats.get (Net.stats net) name in
    let retries0 = stat "net.client_retries" and backoff0 = stat "net.client_backoff_ns" in
    let drops0 = List.length (Fault.schedule "net.drop_reply") in
    let spans = Bess_obs.Span.create () in
    (match Bess_sched.Planes.with_installed ~spans call with
    | _ -> Alcotest.failf "%s: a call whose every reply is lost must fail" what
    | exception e ->
        Alcotest.(check bool) (what ^ ": raises " ^ Printexc.to_string e) true (raised e));
    Alcotest.(check (list string)) (what ^ ": backoff spans by attempt")
      [ "1"; "2"; "3"; "4"; "5"; "6"; "7" ]
      (List.filter_map
         (fun (sp : Bess_obs.Span.span) ->
           if sp.kind = "client.backoff" then List.assoc_opt "attempt" sp.attrs else None)
         (Bess_obs.Span.to_list spans));
    Alcotest.(check int) (what ^ ": 8 attempts") 8
      (List.length (Fault.schedule "net.drop_reply") - drops0);
    Alcotest.(check int) (what ^ ": 7 retries") 7 (stat "net.client_retries" - retries0);
    Alcotest.(check int) (what ^ ": 25.4 ms of backoff") 25_400_000
      (stat "net.client_backoff_ns" - backoff0)
  in
  let db, _, net, _ = setup_remote ~db_id:905 in
  let f = Bess.Remote.fetcher net ~client_id:2300 ~server_id:(Bess.Db.db_id db) in
  arm ();
  exhausts "remote fetcher" net f.F.f_begin ~raised:(function
    | Bess.Remote.Remote_error _ -> true
    | _ -> false);
  Fault.reset ();
  let sh = Bess_shard.Shard.create ~n:2 () in
  arm ();
  exhausts "shard plane" (Bess_shard.Shard.net sh)
    (fun () ->
      Bess.Remote.call (Bess_shard.Shard.net sh) ~src:2400 ~dst:1 (Bess.Remote.Begin { rid = 1 }))
    ~raised:(function Bess.Remote.Exhausted 1 -> true | _ -> false)

(* ---- Zero cost when off -------------------------------------------------- *)

(* The same workload with (a) no site configured, (b) every chaos site
   explicitly Never, (c) sites armed with plans that never reach their
   ordinal, must produce bit-identical workload counters: checks may be
   counted, but the traffic, clock and force accounting cannot move. *)
let test_disarmed_is_free () =
  let run arm =
    Bess_obs.Registry.with_fresh @@ fun () ->
    Fun.protect ~finally:Fault.reset @@ fun () ->
    let db, server, net, page = setup_remote ~db_id:903 in
    let f = Bess.Remote.fetcher net ~client_id:2200 ~server_id:(Bess.Db.db_id db) in
    arm ();
    let t0 = Bess_obs.Span.now_ns () in
    let txn = f.F.f_begin () in
    let bytes = fetch_x f ~txn page in
    f.F.f_commit ~txn
      [ { Bess.Server.page; offset = 0; before = Bytes.sub bytes 0 8; after = i64 31337 } ];
    let log = Bess.Store.log (Bess.Server.store server) in
    ( Net.messages net,
      Net.bytes net,
      Bess_obs.Span.now_ns () - t0,
      Bess_util.Stats.get (Log.stats log) "log.forces",
      Bess_util.Stats.get (Bess.Server.stats server) "server.commits" )
  in
  let off = run (fun () -> ()) in
  let never =
    run (fun () ->
        Fault.seed 1;
        Fault.apply_profile
          (List.map (fun (s, _) -> (s, Fault.Never)) (List.assoc "chaos" Fault.profiles)))
  in
  let armed_cold =
    run (fun () ->
        Fault.seed 1;
        Fault.apply_profile
          (List.map (fun (s, _) -> (s, Fault.Plan [ 1_000_000 ])) (List.assoc "chaos" Fault.profiles)))
  in
  Alcotest.(check bool) "Never everywhere is bit-identical" true (off = never);
  Alcotest.(check bool) "armed-but-never-firing is bit-identical" true (off = armed_cold)

(* ---- Deterministic per-site behaviour ------------------------------------ *)

let test_net_fault_sites () =
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let net =
    Net.create ~per_message_ns:100 ~per_byte_ns:1 ~req_cost:String.length
      ~resp_cost:String.length ()
  in
  let handled = ref 0 in
  Net.register net ~id:1 (fun ~src:_ req ->
      incr handled;
      String.uppercase_ascii req);
  Fault.seed 3;
  (* Dropped request: accounted on the wire, handler never runs. *)
  Fault.configure "net.drop_request" (Fault.Plan [ 1 ]);
  (match Net.call net ~src:9 ~dst:1 "abc" with
  | _ -> Alcotest.fail "dropped request must time out"
  | exception Net.Timeout 1 -> ());
  Alcotest.(check int) "handler never ran" 0 !handled;
  Alcotest.(check int) "request still crossed the wire" 1 (Net.messages net);
  Alcotest.(check int) "drop counted" 1
    (Bess_util.Stats.get (Net.stats net) "net.dropped_requests");
  (* Duplicate delivery: the handler really runs twice. *)
  Fault.configure "net.drop_request" Fault.Never;
  Fault.configure "net.dup" (Fault.Plan [ 1 ]);
  Alcotest.(check string) "duplicated call still answers" "ABC" (Net.call net ~src:9 ~dst:1 "abc");
  Alcotest.(check int) "handler ran twice" 2 !handled;
  Alcotest.(check int) "two requests and one reply accounted" 4 (Net.messages net);
  Alcotest.(check int) "duplicate counted" 1
    (Bess_util.Stats.get (Net.stats net) "net.duplicates");
  (* Latency spike: time passes, nothing is lost. *)
  Fault.configure "net.dup" Fault.Never;
  Fault.configure "net.delay" (Fault.Plan [ 1 ]);
  let t0 = Bess_obs.Span.now_ns () in
  Alcotest.(check string) "delayed call answers" "XY" (Net.call net ~src:9 ~dst:1 "xy");
  Alcotest.(check bool) "spike visible on the clock" true (Bess_obs.Span.now_ns () - t0 > 204);
  Alcotest.(check int) "delay counted" 1 (Bess_util.Stats.get (Net.stats net) "net.delays")

let test_wal_force_faults () =
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let log = Log.create () in
  ignore (Log.append log { prev_lsn = 0; body = Commit { txn = 1 } });
  Fault.seed 11;
  (* Torn write: the first attempt lands a partial suffix, the retry
     rewrites it; the caller still never hears success before the bytes
     are really down. *)
  Fault.configure "wal.force.torn" (Fault.Plan [ 1 ]);
  Log.flush log ();
  Alcotest.(check int) "torn attempt counted" 1
    (Bess_util.Stats.get (Log.stats log) "log.torn_forces");
  Alcotest.(check int) "retry completed one force" 1
    (Bess_util.Stats.get (Log.stats log) "log.forces");
  Alcotest.(check bool) "durable horizon reached" true
    (Log.flushed_lsn log >= Log.last_lsn log);
  (* Persistent I/O error: three consecutive failures exhaust the bounded
     retries and surface as Injected -- never as a silent success. *)
  Fault.configure "wal.force.torn" Fault.Never;
  Fault.configure "wal.force.eio" (Fault.Plan [ 1; 2; 3 ]);
  ignore (Log.append log { prev_lsn = 0; body = Commit { txn = 2 } });
  (match Log.flush log () with
  | () -> Alcotest.fail "persistent EIO must raise"
  | exception Fault.Injected _ -> ());
  Alcotest.(check int) "three attempts failed" 3
    (Bess_util.Stats.get (Log.stats log) "log.force_errors");
  Alcotest.(check bool) "tail not durable after the failure" true
    (Log.flushed_lsn log < Log.last_lsn log);
  (* The plan is exhausted: the next force catches the tail up. *)
  Log.flush log ();
  Alcotest.(check bool) "suffix flushed once the fault cleared" true
    (Log.flushed_lsn log >= Log.last_lsn log)

(* ---- Recover twice is a no-op -------------------------------------------- *)

let test_recover_twice_noop () =
  let db = Bess.Db.create_memory ~db_id:902 () in
  let server = Bess.Db.server db in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  let page = data_page seg in
  (* One committed write and one left in flight, then crash. *)
  let t1 = Bess.Server.begin_txn server ~client:1 in
  Bess.Server.update_inplace server ~txn:t1 page ~offset:0 (i64 77);
  Bess.Server.commit_inplace server ~txn:t1;
  let t2 = Bess.Server.begin_txn server ~client:1 in
  Bess.Server.update_inplace server ~txn:t2 page ~offset:8 (i64 88);
  Bess.Server.crash server;
  ignore (Bess.Server.recover server);
  let log = Bess.Store.log (Bess.Server.store server) in
  let snapshot = Bess.Server.read_page server page in
  let records = Log.fold log (fun n _ _ -> n + 1) 0 in
  let forces = Bess_util.Stats.get (Log.stats log) "log.forces" in
  (* Recover again WITHOUT an intervening crash: strictly nothing to do --
     no redo, no undo, no fresh log records, no extra force. *)
  let o2 = Bess.Server.recover server in
  Alcotest.(check int) "no redo second time" 0 o2.Bess_wal.Recovery.redone;
  Alcotest.(check int) "no undo second time" 0 o2.Bess_wal.Recovery.undone;
  Alcotest.(check (list int)) "no losers second time" [] o2.Bess_wal.Recovery.losers;
  Alcotest.(check int) "no new log records" records (Log.fold log (fun n _ _ -> n + 1) 0);
  Alcotest.(check int) "no extra forces" forces
    (Bess_util.Stats.get (Log.stats log) "log.forces");
  Alcotest.(check bytes) "page image stable" snapshot (Bess.Server.read_page server page);
  Alcotest.(check int) "committed value still there" 77
    (Bess_util.Codec.get_i64 (Bess.Server.read_page server page) 0);
  Alcotest.(check int) "loser still undone" 0
    (Bess_util.Codec.get_i64 (Bess.Server.read_page server page) 8)

(* ---- Torn tail by CRC corruption on disk --------------------------------- *)

let test_torn_crc_reopen () =
  let path = Filename.temp_file "bess_chaos_crc" ".log" in
  let log = Log.create ~path () in
  let r1 : Log_record.t = { prev_lsn = 0; body = Commit { txn = 0x0A0B0C0D } } in
  ignore (Log.append log r1);
  ignore (Log.append log { prev_lsn = 0; body = Commit { txn = 0x0A0B0C0E } });
  Log.flush log ();
  Log.close log;
  (* Flip one CRC byte of the LAST record directly on disk: same length,
     valid header, corrupt checksum -- the scan must stop at the valid
     prefix, not raise. Framing: [total_len u32][crc u32][payload], so
     the second record's CRC lives at its offset + 4. *)
  let off = Bytes.length (Log_record.encode r1) in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd (off + 4) Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5A));
  ignore (Unix.lseek fd (off + 4) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let log1 = Log.open_existing path in
  Alcotest.(check int) "stops at the valid prefix" 1 (Log.fold log1 (fun n _ _ -> n + 1) 0);
  Alcotest.(check int) "valid prefix is the first record" off (Log.size_bytes log1);
  Alcotest.(check int) "truncation counted" 1
    (Bess_util.Stats.get (Log.stats log1) "log.reopen_truncations");
  Alcotest.(check int) "file truncated on disk" off (Unix.stat path).Unix.st_size;
  (* Life goes on: an append after the truncation survives a restart. *)
  ignore (Log.append log1 { prev_lsn = 0; body = Commit { txn = 3 } });
  Log.flush log1 ();
  Log.close log1;
  let log2 = Log.open_existing path in
  Alcotest.(check int) "no phantom after reopen" 2 (Log.fold log2 (fun n _ _ -> n + 1) 0);
  Log.close log2;
  Sys.remove path

(* ---- Policy / profile parsing -------------------------------------------- *)

let test_policy_parsing () =
  let ok s p =
    match Fault.policy_of_string s with
    | Ok p' -> Alcotest.(check string) s (Fault.policy_to_string p) (Fault.policy_to_string p')
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  ok "never" Fault.Never;
  ok "every:50" (Fault.Every_n 50);
  ok "prob:0.05" (Fault.Prob 0.05);
  ok "plan:3+17+40" (Fault.Plan [ 3; 17; 40 ]);
  (match Fault.policy_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage policy accepted");
  (match Fault.profile_of_string "flaky-net" with
  | Ok sites -> Alcotest.(check bool) "named profile resolves" true (List.length sites > 0)
  | Error e -> Alcotest.failf "flaky-net rejected: %s" e);
  (match Fault.profile_of_string "net.dup=every:9,wal.force.eio=prob:0.5" with
  | Ok [ ("net.dup", Fault.Every_n 9); ("wal.force.eio", Fault.Prob 0.5) ] -> ()
  | Ok _ -> Alcotest.fail "explicit profile parsed wrong"
  | Error e -> Alcotest.failf "explicit profile rejected: %s" e);
  (match Fault.profile_of_string "net.dup-every:9" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed entry accepted")

let suite =
  [
    Alcotest.test_case "policy_parsing" `Quick test_policy_parsing;
    Alcotest.test_case "net_fault_sites" `Quick test_net_fault_sites;
    Alcotest.test_case "wal_force_faults" `Quick test_wal_force_faults;
    Alcotest.test_case "disarmed_is_free" `Quick test_disarmed_is_free;
    Alcotest.test_case "retry_exhaustion" `Quick test_retry_exhaustion;
    Alcotest.test_case "dropped_commit_reply_exactly_once" `Quick
      test_dropped_commit_reply_exactly_once;
    Alcotest.test_case "recover_twice_noop" `Quick test_recover_twice_noop;
    Alcotest.test_case "torn_crc_reopen" `Quick test_torn_crc_reopen;
    Alcotest.test_case "torture_sweep_200_seeds" `Quick test_torture_sweep;
    Alcotest.test_case "schedule_reproducible" `Quick test_schedule_reproducible;
    QCheck_alcotest.to_alcotest prop_torture;
  ]
