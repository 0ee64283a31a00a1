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

(* Propagated work is upstream for good: a crash after a propagation
   re-ships nothing, so a newer value another client committed since is
   not overwritten by the replay. *)
let test_crash_after_propagate_reships_nothing () =
  let db, node, page = setup () in
  let procs = Bess.Node_server.procs node in
  write_via_node node procs (page 0) 31;
  Bess.Node_server.commit_local node;
  Bess.Node_server.propagate node;
  let server = Bess.Db.server db in
  let txn = Bess.Server.begin_txn server ~client:79 in
  let r = Bess_lock.Lock_mgr.page_resource ~area:(page 0).area ~page:(page 0).page in
  Alcotest.(check bool) "the other client gets the page" true
    (Bess.Server.lock server ~txn r Bess_lock.Lock_mode.X = `Granted);
  let before = Bess.Server.read_page server (page 0) in
  let after = Bytes.copy before in
  Bess_util.Codec.set_i64 after 0 55;
  let updates = [ { Bess.Server.page = page 0; offset = 0; before; after } ] in
  Alcotest.(check bool) "the other client commits" true
    (Bess.Server.commit_client server ~txn ~updates = `Committed);
  Bess.Node_server.crash_node node;
  Bess.Node_server.recover_node node;
  Alcotest.(check int) "the newer upstream value survives recovery" 55
    (Bess_util.Codec.get_i64 (Bess.Server.read_page server (page 0)) 0)

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

(* A propagation whose re-lock is refused leaves its begin mark in the
   log; the queued work still survives a crash that follows. *)
let test_refused_propagation_keeps_local_commits () =
  let db, node, page = setup ~id:602 () in
  let procs = Bess.Node_server.procs node in
  write_via_node node procs (page 0) 43;
  Bess.Node_server.commit_local node;
  Bess.Node_server.abort node;
  let server = Bess.Db.server db in
  let t = Bess.Server.begin_txn server ~client:79 in
  Alcotest.(check bool) "another client takes the page" true
    (Bess.Server.lock server ~txn:t
       (Bess_lock.Lock_mgr.page_resource ~area:(page 0).area ~page:(page 0).page)
       Bess_lock.Lock_mode.X
    = `Granted);
  Alcotest.check_raises "propagation blocks" Bess.Fetcher.Would_block (fun () ->
      Bess.Node_server.propagate node);
  Bess.Server.abort_client server ~txn:t;
  Bess.Node_server.crash_node node;
  Bess.Node_server.recover_node node;
  Alcotest.(check int) "the local commit reached upstream" 43
    (Bess_util.Codec.get_i64 (Bess.Server.read_page server (page 0)) 0)

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
  ]
