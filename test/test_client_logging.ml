(* Client logging at the node server (the paper's section 6 future work):
   local commits force only the local log; write-behind propagation; node
   crash recovery replays the local log and re-ships. *)

module Vmem = Bess_vmem.Vmem
module Page_id = Bess_cache.Page_id

let setup () =
  let db = Bess.Db.create_memory ~db_id:500 () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:4 () in
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  let node = Bess.Node_server.create ~n_procs:1 ~id:600 (Bess.Db.server db) in
  Bess.Node_server.enable_client_logging node;
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
    (Bess_util.Codec.get_i64 bytes 0 <> 999)

let suite =
  [
    Alcotest.test_case "local_commit_cheap" `Quick test_local_commit_no_upstream_traffic;
    Alcotest.test_case "write_behind_locked" `Quick test_unpropagated_state_invisible_and_locked;
    Alcotest.test_case "node_crash_recovery" `Quick test_node_crash_recovery;
    Alcotest.test_case "uncommitted_lost" `Quick test_uncommitted_local_work_lost_in_crash;
  ]
