(* File-backed databases: create, populate, close, reopen from disk in a
   fresh process-like state; catalog, areas and object data all survive. *)

module Vmem = Bess_vmem.Vmem

let temp_dir () =
  let dir = Filename.temp_file "bessdb" "" in
  Sys.remove dir;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_create_close_reopen () =
  let dir = temp_dir () in
  let db = Bess.Db.create_dir ~n_areas:2 ~db_id:1 dir in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"persisted"
      ~size:24 ~ref_offsets:[| 0 |]
  in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let f = Bess.Bess_file.create s ~name:"stuff" ~data_pages:1 () in
  let objs =
    Array.init 30 (fun i ->
        let o = Bess.Bess_file.new_object f ty ~size:24 in
        Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) (i * 3);
        o)
  in
  Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s objs.(0)) (Some objs.(29));
  Bess.Session.set_root s ~name:"first" objs.(0);
  Bess.Session.commit s;
  let oid29 = Bess.Session.oid_of s objs.(29) in
  Bess.Db.close db;

  (* Reopen: catalog decoded from disk, areas re-opened with their buddy
     state, pages read back from the files. *)
  let db2 = Bess.Db.open_dir ~db_id:1 dir in
  Alcotest.(check int) "segments survive" (Bess.Catalog.n_segments (Bess.Db.catalog db))
    (Bess.Catalog.n_segments (Bess.Db.catalog db2));
  let s2 = Bess.Db.session db2 in
  Bess.Session.begin_txn s2;
  let first = Option.get (Bess.Session.root s2 "first") in
  Alcotest.(check int) "payload from disk" 0
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 first + 8));
  let last = Option.get (Bess.Session.read_ref s2 ~data_addr:(Bess.Session.obj_data s2 first)) in
  Alcotest.(check int) "reference from disk" 87
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 last + 8));
  Alcotest.(check bool) "oid resolves after reopen" true (Bess.Session.by_oid s2 oid29 = last);
  (* The file scans completely. *)
  let f2 = Bess.Bess_file.open_existing s2 ~name:"stuff" () in
  Alcotest.(check int) "count after reopen" 30 (Bess.Bess_file.count f2);
  Bess.Session.commit s2;
  (* Types survive too. *)
  Alcotest.(check bool) "type registry survives" true
    (Bess.Type_desc.find_by_name (Bess.Catalog.types (Bess.Db.catalog db2)) "persisted" <> None);
  Bess.Db.close db2;
  rm_rf dir

let test_modify_after_reopen () =
  let dir = temp_dir () in
  let db = Bess.Db.create_dir ~db_id:1 dir in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"t" ~size:16
      ~ref_offsets:[||]
  in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let o = Bess.Session.create_object s seg ty ~size:16 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o) 1;
  Bess.Session.set_root s ~name:"o" o;
  Bess.Session.commit s;
  Bess.Db.close db;
  (* Reopen, update, close, reopen again: both generations durable. *)
  let db2 = Bess.Db.open_dir ~db_id:1 dir in
  let s2 = Bess.Db.session db2 in
  Bess.Session.begin_txn s2;
  let o2 = Option.get (Bess.Session.root s2 "o") in
  Vmem.write_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 o2) 2;
  (* New allocations after reopen must not stomp existing segments. *)
  let seg2 = Bess.Session.create_segment s2 ~slotted_pages:1 ~data_pages:1 () in
  let o3 = Bess.Session.create_object s2 seg2 ty ~size:16 in
  Vmem.write_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 o3) 3;
  Bess.Session.set_root s2 ~name:"o3" o3;
  Bess.Session.commit s2;
  Bess.Db.close db2;
  let db3 = Bess.Db.open_dir ~db_id:1 dir in
  let s3 = Bess.Db.session db3 in
  Bess.Session.begin_txn s3;
  let o' = Option.get (Bess.Session.root s3 "o") in
  let o3' = Option.get (Bess.Session.root s3 "o3") in
  Alcotest.(check int) "second-generation update" 2
    (Vmem.read_i64 (Bess.Session.mem s3) (Bess.Session.obj_data s3 o'));
  Alcotest.(check int) "object created after reopen" 3
    (Vmem.read_i64 (Bess.Session.mem s3) (Bess.Session.obj_data s3 o3'));
  Bess.Session.commit s3;
  Bess.Db.close db3;
  rm_rf dir

(* Group commit crash safety: a crash mid-batch, with committers still
   waiting on their tickets, must lose exactly the unacknowledged
   commits. Acknowledged work survives recovery, unacknowledged work
   leaves no trace (no phantom commits), and the lost tickets fail
   loudly instead of acking. *)
let test_group_commit_crash_mid_batch () =
  let db = Bess.Db.create_memory ~db_id:91 () in
  let server = Bess.Db.server db in
  let area = Bess.Db.default_area db in
  (* Seed pages to update, then widen the group so a whole batch can be
     in flight when the crash hits. *)
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  ignore (Bess.Session.create_segment s ~slotted_pages:2 ~data_pages:8 ());
  Bess.Session.commit s;
  Bess.Server.set_group_policy server (Bess_wal.Group_commit.Group_n 8);
  let commit_raw ~client ~page:pg ~value =
    let txn = Bess.Server.begin_txn server ~client in
    let page = { Bess_cache.Page_id.area; page = pg } in
    (match
       Bess.Server.lock server ~txn
         (Bess_lock.Lock_mgr.page_resource ~area ~page:pg)
         Bess_lock.Lock_mode.X
     with
    | `Granted -> ()
    | _ -> Alcotest.fail "page lock should be granted");
    let before = Bytes.sub (Bess.Server.read_page server page) 0 8 in
    let after = Bytes.make 8 value in
    match
      Bess.Server.commit_client_begin server ~txn
        ~updates:[ { Bess.Server.page; offset = 0; before; after } ]
    with
    | `Committed tk -> (tk, before)
    | `Lock_violation -> Alcotest.fail "commit rejected"
  in
  let tk_a, _ = commit_raw ~client:1 ~page:1 ~value:'A' in
  Bess.Server.await_commit server tk_a (* acknowledged: stall-forces the log *);
  let tk_b, before_b = commit_raw ~client:2 ~page:2 ~value:'B' in
  let _tk_c, before_c = commit_raw ~client:3 ~page:3 ~value:'C' in
  Bess.Server.crash server;
  ignore (Bess.Server.recover server);
  let read pg =
    Bytes.sub (Bess.Server.read_page server { Bess_cache.Page_id.area; page = pg }) 0 8
  in
  Alcotest.(check bytes) "acknowledged commit survives" (Bytes.make 8 'A') (read 1);
  Alcotest.(check bytes) "unacknowledged commit gone" before_b (read 2);
  Alcotest.(check bytes) "unacknowledged commit gone" before_c (read 3);
  Alcotest.check_raises "lost ticket never acks" Bess_wal.Group_commit.Lost_ticket (fun () ->
      Bess.Server.await_commit server tk_b)

let test_wal_file_backed_recovery () =
  (* A WAL on a real file: force, crash (drop the in-memory tail), then
     drive recovery from the re-opened log. *)
  let dir = temp_dir () in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "test.log" in
  let log = Bess_wal.Log.create ~path () in
  let store = Bytes.make 256 '\000' in
  let lsn1 =
    Bess_wal.Log.append log
      { prev_lsn = 0;
        body = Update { txn = 1; page = { area = 0; page = 0 }; offset = 0;
                        before = Bytes.make 4 '\000'; after = Bytes.of_string "SAVE" } }
  in
  let lsn2 = Bess_wal.Log.append log { prev_lsn = lsn1; body = Commit { txn = 1 } } in
  Bess_wal.Log.flush log ~lsn:lsn2 ();
  Bess_wal.Log.close log;
  let log2 = Bess_wal.Log.open_existing path in
  let io : Bess_wal.Recovery.page_io =
    { page_lsn = (fun _ -> 0);
      write =
        (fun _ apply -> apply (fun ~lsn:_ ~offset src pos len -> Bytes.blit src pos store offset len)) }
  in
  let outcome = Bess_wal.Recovery.recover log2 io in
  Alcotest.(check (list int)) "winner found in reopened log" [ 1 ] outcome.winners;
  Alcotest.(check string) "redo applied" "SAVE" (Bytes.sub_string store 0 4);
  Bess_wal.Log.close log2;
  rm_rf dir

(* Unclean shutdown: committed work whose dirty pages never reached the
   area files must be recovered from the on-disk WAL at open_dir. *)
let test_unclean_shutdown_recovery () =
  let dir = temp_dir () in
  let db = Bess.Db.create_dir ~db_id:1 dir in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"u" ~size:16
      ~ref_offsets:[||]
  in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let o = Bess.Session.create_object s seg ty ~size:16 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o) 1;
  Bess.Session.set_root s ~name:"u" o;
  Bess.Session.commit s;
  (* Make the catalog durable (a checkpoint-style sync)... *)
  Bess.Db.sync db;
  (* ...then commit MORE work that only reaches the forced WAL: the
     server cache still holds the dirty pages when the process "dies"
     (no close, no sync). *)
  Bess.Session.begin_txn s;
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o) 2;
  Bess.Session.commit s;
  (* Simulate process death: nothing flushed past the WAL force. *)
  let db2 = Bess.Db.open_dir ~db_id:1 dir in
  let s2 = Bess.Db.session db2 in
  Bess.Session.begin_txn s2;
  let o2 = Option.get (Bess.Session.root s2 "u") in
  Alcotest.(check int) "post-sync commit recovered from WAL" 2
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 o2));
  Bess.Session.commit s2;
  Bess.Db.close db2;
  rm_rf dir

let suite =
  [
    Alcotest.test_case "create_close_reopen" `Quick test_create_close_reopen;
    Alcotest.test_case "unclean_shutdown_recovery" `Quick test_unclean_shutdown_recovery;
    Alcotest.test_case "modify_after_reopen" `Quick test_modify_after_reopen;
    Alcotest.test_case "wal_file_recovery" `Quick test_wal_file_backed_recovery;
    Alcotest.test_case "group_commit_crash_mid_batch" `Quick test_group_commit_crash_mid_batch;
  ]
