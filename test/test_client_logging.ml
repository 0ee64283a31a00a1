(* Client logging at the node server (the paper's section 6 future work):
   local commits force only the local log; write-behind propagation; node
   crash recovery replays the local log and re-ships. *)

module Vmem = Bess_vmem.Vmem
module Page_id = Bess_cache.Page_id

let setup ?(id = 600) ?(logging = true) () =
  let db = Bess.Db.create_memory ~db_id:500 () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:4 () in
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  let node =
    Bess.Node_server.create ~n_procs:1
      (Bess.Fetcher.direct ~client_id:id (Bess.Db.server db))
  in
  if logging then Bess.Node_server.enable_client_logging node;
  let page i =
    { Page_id.area = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.area;
      page = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.first_page + i }
  in
  (db, node, page)

let write_via_node node procs page v =
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:true in
  Vmem.write_i64 procs.(0).Bess.Node_server.pvma addr v

let test_local_commit_no_upstream_traffic () =
  let db, node, page = setup () in
  let procs = Bess.Node_server.procs node in
  let server_commits () =
    Bess_util.Stats.get (Bess.Server.stats (Bess.Db.server db)) "server.commits"
  in
  let before = server_commits () in
  write_via_node node procs (page 0) 111;
  Bess.Node_server.commit_local node;
  (* Local commit: durable in the local log, nothing committed upstream. *)
  Alcotest.(check int) "no upstream commit yet" before (server_commits ());
  Alcotest.(check int) "one local commit" 1
    (Bess_util.Stats.get (Bess.Node_server.stats node) "node.local_commits");
  (* Upstream still holds the old value, so the cached page stays dirty. *)
  Alcotest.(check (option bool)) "still dirty" (Some true)
    (Option.map
       (fun (s : Bess_cache.Cache.slot) -> s.dirty)
       (Bess_cache.Cache.find_slot (Bess.Node_server.cache node) (page 0)));
  (* The node's own readers see the locally committed value. *)
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 (page 0) ~write:false in
  Alcotest.(check int) "node sees its local commit" 111
    (Vmem.read_i64 procs.(0).Bess.Node_server.pvma addr);
  (* Propagation ships it upstream in one batch. *)
  Bess.Node_server.propagate node;
  Alcotest.(check bool) "upstream committed after propagate" true (server_commits () > before);
  let bytes = Bess.Server.read_page (Bess.Db.server db) (page 0) in
  Alcotest.(check int) "upstream has the value" 111 (Bess_util.Codec.get_i64 bytes 0)

let test_unpropagated_state_invisible_and_locked () =
  let db, node, page = setup () in
  let procs = Bess.Node_server.procs node in
  write_via_node node procs (page 1) 222;
  Bess.Node_server.commit_local node;
  (* Another client cannot slip in and read the page: the node's upstream
     X lock is still held (write-behind stays safe). *)
  let server = Bess.Db.server db in
  let t = Bess.Server.begin_txn server ~client:77 in
  let verdict =
    Bess.Server.lock server ~txn:t
      (Bess_lock.Lock_mgr.page_resource ~area:(page 1).area ~page:(page 1).page)
      Bess_lock.Lock_mode.S
  in
  Alcotest.(check bool) "other client blocks on unpropagated page" true (verdict = `Blocked);
  Bess.Server.abort_client server ~txn:t;
  Bess.Node_server.propagate node;
  (* After propagation the page is readable and current. *)
  let t2 = Bess.Server.begin_txn server ~client:77 in
  let verdict2 =
    Bess.Server.lock server ~txn:t2
      (Bess_lock.Lock_mgr.page_resource ~area:(page 1).area ~page:(page 1).page)
      Bess_lock.Lock_mode.S
  in
  Alcotest.(check bool) "readable after propagation" true (verdict2 = `Granted);
  Bess.Server.abort_client server ~txn:t2

let test_node_crash_recovery () =
  let db, node, page = setup () in
  let procs = Bess.Node_server.procs node in
  (* Two locally committed transactions, then the node dies before
     propagating. *)
  write_via_node node procs (page 0) 31;
  Bess.Node_server.commit_local node;
  write_via_node node procs (page 2) 32;
  Bess.Node_server.commit_local node;
  Bess.Node_server.crash_node node;
  (* The upstream never saw the data... *)
  let bytes = Bess.Server.read_page (Bess.Db.server db) (page 0) in
  Alcotest.(check bool) "upstream stale before recovery" true
    (Bess_util.Codec.get_i64 bytes 0 <> 31);
  (* ...but recovery replays the durable local log and ships it. *)
  Bess.Node_server.recover_node node;
  let b0 = Bess.Server.read_page (Bess.Db.server db) (page 0) in
  let b2 = Bess.Server.read_page (Bess.Db.server db) (page 2) in
  Alcotest.(check int) "txn 1 recovered" 31 (Bess_util.Codec.get_i64 b0 0);
  Alcotest.(check int) "txn 2 recovered" 32 (Bess_util.Codec.get_i64 b2 0);
  (* Orphaned upstream locks were released: others proceed. *)
  let server = Bess.Db.server db in
  let t = Bess.Server.begin_txn server ~client:78 in
  Alcotest.(check bool) "no orphan locks" true
    (Bess.Server.lock server ~txn:t
       (Bess_lock.Lock_mgr.page_resource ~area:(page 0).area ~page:(page 0).page)
       Bess_lock.Lock_mode.S
    = `Granted);
  Bess.Server.abort_client server ~txn:t

let test_uncommitted_local_work_lost_in_crash () =
  let db, node, page = setup () in
  let procs = Bess.Node_server.procs node in
  write_via_node node procs (page 3) 999;
  (* no commit_local: the write is volatile *)
  Bess.Node_server.crash_node node;
  Bess.Node_server.recover_node node;
  let bytes = Bess.Server.read_page (Bess.Db.server db) (page 3) in
  Alcotest.(check bool) "uncommitted write did not survive" true
    (Bess_util.Codec.get_i64 bytes 0 <> 999);
  (* The orphaned upstream transaction was aborted: its X lock is gone. *)
  let server = Bess.Db.server db in
  let t = Bess.Server.begin_txn server ~client:78 in
  Alcotest.(check bool) "no orphan lock" true
    (Bess.Server.lock server ~txn:t
       (Bess_lock.Lock_mgr.page_resource ~area:(page 3).area ~page:(page 3).page)
       Bess_lock.Lock_mode.S
    = `Granted);
  Bess.Server.abort_client server ~txn:t

let upstream_value db (page : Page_id.t) =
  Bess_util.Codec.get_i64 (Bess.Server.read_page (Bess.Db.server db) page) 0

(* Another client commits [v] to [page] over whatever upstream holds. *)
let other_client_commits db (page : Page_id.t) v =
  let server = Bess.Db.server db in
  let txn = Bess.Server.begin_txn server ~client:79 in
  let r = Bess_lock.Lock_mgr.page_resource ~area:page.area ~page:page.page in
  Alcotest.(check bool) "the other client gets the page" true
    (Bess.Server.lock server ~txn r Bess_lock.Lock_mode.X = `Granted);
  let before = Bess.Server.read_page server page in
  let after = Bytes.copy before in
  Bess_util.Codec.set_i64 after 0 v;
  Alcotest.(check bool) "the other client commits" true
    (Bess.Server.commit_client server ~txn ~updates:[ { Bess.Server.page; offset = 0; before; after } ]
    = `Committed)

(* Propagated work is upstream for good: a crash after a propagation
   re-ships nothing, so a newer value another client committed since is
   not overwritten by the replay. *)
let test_crash_after_propagate_reships_nothing () =
  let db, node, page = setup () in
  let procs = Bess.Node_server.procs node in
  write_via_node node procs (page 0) 31;
  Bess.Node_server.commit_local node;
  Bess.Node_server.propagate node;
  other_client_commits db (page 0) 55;
  Bess.Node_server.crash_node node;
  Bess.Node_server.recover_node node;
  Alcotest.(check int) "the newer upstream value survives recovery" 55 (upstream_value db (page 0))

let other_client_locks db (page : Page_id.t) mode =
  let server = Bess.Db.server db in
  let t = Bess.Server.begin_txn server ~client:78 in
  let v =
    Bess.Server.lock server ~txn:t
      (Bess_lock.Lock_mgr.page_resource ~area:page.area ~page:page.page) mode
  in
  Bess.Server.abort_client server ~txn:t;
  v

(* An abort after a local commit keeps the locally committed work queued,
   and the next access begins a new upstream transaction. Its begin mark
   must not cut the log: recovery still ships the first local commit. *)
let test_begin_mark_keeps_local_commits () =
  let db, node, page = setup ~id:601 () in
  let procs = Bess.Node_server.procs node in
  write_via_node node procs (page 0) 41;
  Bess.Node_server.commit_local node;
  Bess.Node_server.abort node;
  write_via_node node procs (page 1) 42;
  Bess.Node_server.crash_node node;
  Bess.Node_server.recover_node node;
  let server = Bess.Db.server db in
  Alcotest.(check int) "the local commit reached upstream" 41
    (Bess_util.Codec.get_i64 (Bess.Server.read_page server (page 0)) 0);
  Alcotest.(check bool) "the unfinished write did not" true
    (Bess_util.Codec.get_i64 (Bess.Server.read_page server (page 1)) 0 <> 42);
  Alcotest.(check bool) "no orphan lock" true
    (other_client_locks db (page 1) Bess_lock.Lock_mode.X = `Granted)

(* An abort after a local commit keeps the upstream transaction and its
   X lock on the queued page. Once the node crashes, another client
   queues for that lock; recovery aborts the orphan, which hands the
   page over, so the propagation's re-lock is refused. The queued work
   still survives a crash that follows. *)
let test_refused_propagation_keeps_local_commits () =
  let db, node, page = setup ~id:602 () in
  let procs = Bess.Node_server.procs node in
  write_via_node node procs (page 0) 43;
  Bess.Node_server.commit_local node;
  Bess.Node_server.abort node;
  Alcotest.(check bool) "the node still holds the page" true
    (other_client_locks db (page 0) Bess_lock.Lock_mode.X = `Blocked);
  Bess.Node_server.crash_node node;
  let server = Bess.Db.server db in
  let t = Bess.Server.begin_txn server ~client:79 in
  Alcotest.(check bool) "another client waits for the orphan's lock" true
    (Bess.Server.lock server ~txn:t
       (Bess_lock.Lock_mgr.page_resource ~area:(page 0).area ~page:(page 0).page)
       Bess_lock.Lock_mode.X
    = `Blocked);
  Alcotest.check_raises "propagation blocks" Bess.Fetcher.Would_block (fun () ->
      Bess.Node_server.recover_node node);
  Bess.Server.abort_client server ~txn:t;
  Bess.Node_server.crash_node node;
  Bess.Node_server.recover_node node;
  Alcotest.(check int) "the local commit reached upstream" 43
    (Bess_util.Codec.get_i64 (Bess.Server.read_page server (page 0)) 0)

(* An upstream commit after a local one ships the queued work with the
   open write set: once the node's locks go, upstream has both pages, so
   a later propagation has nothing to put over another client's newer
   value. *)
let test_commit_ships_local_commits () =
  let db, node, page = setup () in
  let procs = Bess.Node_server.procs node in
  write_via_node node procs (page 0) 43;
  Bess.Node_server.commit_local node;
  write_via_node node procs (page 1) 44;
  Alcotest.(check bool) "the queued page is the node's" true
    (other_client_locks db (page 0) Bess_lock.Lock_mode.X = `Blocked);
  Bess.Node_server.commit node;
  Alcotest.(check int) "upstream has the local commit" 43 (upstream_value db (page 0));
  Alcotest.(check int) "upstream has the open write" 44 (upstream_value db (page 1));
  other_client_commits db (page 0) 55;
  Bess.Node_server.propagate node;
  Alcotest.(check int) "the newer value survives" 55 (upstream_value db (page 0))

(* An abort after a local commit rolls back only the current local
   transaction: the locally committed page stays locked, reads back at
   its committed value, and ships with the next propagation. *)
let test_abort_keeps_local_commits () =
  let db, node, page = setup () in
  let procs = Bess.Node_server.procs node in
  write_via_node node procs (page 0) 43;
  Bess.Node_server.commit_local node;
  write_via_node node procs (page 0) 99;
  Bess.Node_server.abort node;
  Alcotest.(check bool) "the page stays locked" true
    (other_client_locks db (page 0) Bess_lock.Lock_mode.X = `Blocked);
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 (page 0) ~write:false in
  Alcotest.(check int) "the page reads as committed" 43
    (Vmem.read_i64 procs.(0).Bess.Node_server.pvma addr);
  Bess.Node_server.propagate node;
  Alcotest.(check int) "propagation ships it" 43 (upstream_value db (page 0))

(* The client log belongs to the node: two nodes with one client id over
   two databases recover only their own work. *)
let test_logs_are_per_node () =
  let db_a, node_a, page = setup () in
  let db_b, node_b, _ = setup () in
  write_via_node node_a (Bess.Node_server.procs node_a) (page 0) 31;
  Bess.Node_server.commit_local node_a;
  write_via_node node_b (Bess.Node_server.procs node_b) (page 0) 32;
  Bess.Node_server.commit_local node_b;
  Bess.Node_server.crash_node node_a;
  Bess.Node_server.recover_node node_a;
  Alcotest.(check int) "node a's work reached its database" 31 (upstream_value db_a (page 0));
  Alcotest.(check bool) "node b's did not yet" true (upstream_value db_b (page 0) <> 32);
  Bess.Node_server.propagate node_b;
  Alcotest.(check int) "node b ships its own" 32 (upstream_value db_b (page 0))

(* Shipping truncates the client log, so a crash right after ships
   nothing. *)
let test_log_truncated_when_shipped () =
  let db, node, page = setup () in
  let procs = Bess.Node_server.procs node in
  let server_commits () =
    Bess_util.Stats.get (Bess.Server.stats (Bess.Db.server db)) "server.commits"
  in
  write_via_node node procs (page 0) 31;
  Bess.Node_server.commit_local node;
  Bess.Node_server.propagate node;
  Alcotest.(check int) "the local log is empty" 0
    (Bess_wal.Log.size_bytes (Bess.Node_server.client_log node));
  let shipped = server_commits () in
  Bess.Node_server.crash_node node;
  Bess.Node_server.recover_node node;
  Alcotest.(check int) "recovery ships nothing" shipped (server_commits ())

(* The registry's [wal] stays the data server's: a client log does not
   register. *)
let test_wal_names_the_server () =
  Bess_obs.Registry.with_fresh @@ fun () ->
  let db, node, page = setup ~id:604 () in
  for i = 0 to 3 do
    write_via_node node (Bess.Node_server.procs node) (page i) 31;
    Bess.Node_server.commit_local node
  done;
  let own =
    Bess_util.Stats.get
      (Bess_wal.Log.stats (Bess.Store.log (Bess.Server.store (Bess.Db.server db))))
      "log.appends"
  in
  Alcotest.(check (option int)) "wal.log.appends is the server's" (Some own)
    (List.assoc_opt "wal.log.appends"
       (Bess_obs.Registry.counters (Bess_obs.Registry.snapshot ())))

(* Logging enabled while an upstream transaction is open: that
   transaction is the orphan a restart aborts, so its X lock goes. *)
let test_enable_with_open_txn () =
  let db, node, page = setup ~id:603 ~logging:false () in
  let procs = Bess.Node_server.procs node in
  write_via_node node procs (page 2) 44;
  Bess.Node_server.enable_client_logging node;
  Alcotest.(check bool) "the node holds the page" true
    (other_client_locks db (page 2) Bess_lock.Lock_mode.S = `Blocked);
  Bess.Node_server.crash_node node;
  Bess.Node_server.recover_node node;
  Alcotest.(check bool) "no orphan lock" true
    (other_client_locks db (page 2) Bess_lock.Lock_mode.S = `Granted)

let suite =
  [
    Alcotest.test_case "local_commit_cheap" `Quick test_local_commit_no_upstream_traffic;
    Alcotest.test_case "write_behind_locked" `Quick test_unpropagated_state_invisible_and_locked;
    Alcotest.test_case "node_crash_recovery" `Quick test_node_crash_recovery;
    Alcotest.test_case "uncommitted_lost" `Quick test_uncommitted_local_work_lost_in_crash;
    Alcotest.test_case "crash_after_propagate" `Quick test_crash_after_propagate_reships_nothing;
    Alcotest.test_case "begin_mark_keeps_local_commits" `Quick
      test_begin_mark_keeps_local_commits;
    Alcotest.test_case "refused_propagation_keeps_local_commits" `Quick
      test_refused_propagation_keeps_local_commits;
    Alcotest.test_case "enable_with_open_txn" `Quick test_enable_with_open_txn;
    Alcotest.test_case "commit_ships_local_commits" `Quick test_commit_ships_local_commits;
    Alcotest.test_case "abort_keeps_local_commits" `Quick test_abort_keeps_local_commits;
    Alcotest.test_case "logs_are_per_node" `Quick test_logs_are_per_node;
    Alcotest.test_case "log_truncated_when_shipped" `Quick test_log_truncated_when_shipped;
    Alcotest.test_case "wal_names_the_server" `Quick test_wal_names_the_server;
  ]
