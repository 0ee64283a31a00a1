(* Server behaviour: callback locking across clients, lock-violation
   rejection, in-place (open-server) transactions with ARIES rollback,
   crash recovery through the full stack, checkpoints, 2PC. *)

module Vmem = Bess_vmem.Vmem
module Page_id = Bess_cache.Page_id
module Lock_mode = Bess_lock.Lock_mode
module Lock_mgr = Bess_lock.Lock_mgr

let fresh_db =
  let n = ref 200 in
  fun () ->
    incr n;
    Bess.Db.create_memory ~db_id:!n ()

let ty_of db =
  Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"cell" ~size:16
    ~ref_offsets:[||]

let seed db =
  let s = Bess.Db.session db in
  let ty = ty_of db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:2 () in
  let obj = Bess.Session.create_object s seg ty ~size:16 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s obj) 1;
  Bess.Session.set_root s ~name:"cell" obj;
  Bess.Session.commit s;
  s

(* Callback locking: client 2's write forces client 1 to drop its cached
   copy; client 1's next read refetches and sees the new value. *)
let test_callback_invalidation () =
  let db = fresh_db () in
  let s1 = seed db in
  (* s1 has the object cached (it created it). A second client writes. *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let obj2 = Option.get (Bess.Session.root s2 "cell") in
  Vmem.write_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 obj2) 2;
  Bess.Session.commit s2;
  Alcotest.(check bool) "server sent callbacks" true
    (Bess_util.Stats.get (Bess.Server.stats (Bess.Db.server db)) "server.callbacks_sent" > 0);
  Alcotest.(check bool) "s1 dropped its copy" true
    (Bess_util.Stats.get (Bess.Session.stats s1) "session.callbacks_dropped" > 0);
  (* s1 refetches on next access and sees the committed update. *)
  Bess.Session.begin_txn s1;
  let obj1 = Option.get (Bess.Session.root s1 "cell") in
  Alcotest.(check int) "fresh value after callback" 2
    (Vmem.read_i64 (Bess.Session.mem s1) (Bess.Session.obj_data s1 obj1));
  Bess.Session.commit s1

(* Inter-transaction caching: a second read transaction on the same
   client re-reads without any new segment fetch from the server. *)
let test_intertxn_caching_saves_fetches () =
  let db = fresh_db () in
  let s = seed db in
  let fetches () =
    Bess_util.Stats.get (Bess.Server.stats (Bess.Db.server db)) "server.segment_fetches"
  in
  Bess.Session.begin_txn s;
  let obj = Option.get (Bess.Session.root s "cell") in
  ignore (Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s obj));
  Bess.Session.commit s;
  let before = fetches () in
  Bess.Session.begin_txn s;
  let obj = Option.get (Bess.Session.root s "cell") in
  ignore (Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s obj));
  Bess.Session.commit s;
  Alcotest.(check int) "no new fetches for cached data" before (fetches ())

let test_commit_requires_locks () =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  let txn = Bess.Server.begin_txn server ~client:77 in
  let bogus =
    [ { Bess.Server.page = { Page_id.area = Bess.Db.default_area db; page = 1 };
        offset = 0; before = Bytes.make 4 '\000'; after = Bytes.make 4 'x' } ]
  in
  Alcotest.(check bool) "unlocked update rejected" true
    (Bess.Server.commit_client server ~txn ~updates:bogus = `Lock_violation)

let test_inplace_txn_commit_and_rollback () =
  let db = fresh_db () in
  ignore (seed db);
  let server = Bess.Db.server db in
  let area = Bess.Db.default_area db in
  let page = { Page_id.area; page = 1 } in
  (* Committed in-place write. *)
  let t1 = Bess.Server.begin_txn server ~client:1 in
  Bess.Server.update_inplace server ~txn:t1 page ~offset:100 (Bytes.of_string "COMMIT");
  Bess.Server.commit_inplace server ~txn:t1;
  (* Aborted in-place write rolls back via CLRs. *)
  let t2 = Bess.Server.begin_txn server ~client:1 in
  Bess.Server.update_inplace server ~txn:t2 page ~offset:100 (Bytes.of_string "NOPE!!");
  Bess.Server.abort_inplace server ~txn:t2;
  let bytes = Bess.Server.read_page server page in
  Alcotest.(check string) "abort undone, commit retained" "COMMIT"
    (Bytes.sub_string bytes 100 6)

let test_crash_recovery_full_stack () =
  let db = fresh_db () in
  let s = seed db in
  (* A committed update whose dirty pages never reach the areas. *)
  Bess.Session.begin_txn s;
  let obj = Option.get (Bess.Session.root s "cell") in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s obj) 42;
  Bess.Session.commit s;
  let oid = Bess.Session.oid_of s obj in
  (* And an uncommitted in-place update that DID hit the cache. *)
  let server = Bess.Db.server db in
  let page = { Page_id.area = Bess.Db.default_area db; page = 1 } in
  let t = Bess.Server.begin_txn server ~client:9 in
  Bess.Server.update_inplace server ~txn:t page ~offset:200 (Bytes.of_string "GARBAGE");
  (* Force the stolen page out so undo has real work after the crash. *)
  Bess_cache.Cache.flush_all (Bess.Store.cache (Bess.Server.store server));
  Bess.Server.crash server;
  let outcome = Bess.Server.recover server in
  Alcotest.(check bool) "loser rolled back" true (List.length outcome.losers >= 1);
  (* A brand-new session sees the committed value, not the garbage. *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let obj2 = Bess.Session.by_oid s2 oid in
  Alcotest.(check int) "committed survives crash" 42
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 obj2));
  let bytes = Bess.Server.read_page server page in
  Alcotest.(check bool) "loser data gone" true (Bytes.sub_string bytes 200 7 <> "GARBAGE");
  Bess.Session.commit s2

let test_checkpoint_then_recover () =
  let db = fresh_db () in
  let s = seed db in
  Bess.Session.begin_txn s;
  let obj = Option.get (Bess.Session.root s "cell") in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s obj) 7;
  Bess.Session.commit s;
  let server = Bess.Db.server db in
  Bess.Server.checkpoint server;
  Bess.Server.crash server;
  let outcome = Bess.Server.recover server in
  Alcotest.(check (list int)) "clean checkpointed recovery" [] outcome.losers;
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let obj2 = Option.get (Bess.Session.root s2 "cell") in
  Alcotest.(check int) "value intact" 7
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 obj2));
  Bess.Session.commit s2

(* A committed transaction updates one clean page twice, then a
   checkpoint and a crash. The checkpoint must name the LSN that first
   dirtied the page as its recovery LSN: redo from the page's latest LSN
   would restore only the second update. *)
let test_checkpoint_recovery_lsn () =
  let db = fresh_db () in
  ignore (seed db);
  let server = Bess.Db.server db in
  (* Everything clean: the transaction below is what dirties the page. *)
  Bess.Server.shutdown server;
  let area = Bess.Db.default_area db in
  let page = { Page_id.area; page = 1 } in
  let txn = Bess.Server.begin_txn server ~client:1 in
  (match Bess.Server.lock server ~txn (Lock_mgr.page_resource ~area ~page:1) Lock_mode.X with
  | `Granted -> ()
  | _ -> Alcotest.fail "lock");
  let current = Bess.Server.read_page server page in
  let update offset after =
    { Bess.Server.page; offset; before = Bytes.sub current offset 4; after = Bytes.of_string after }
  in
  (match Bess.Server.commit_client server ~txn ~updates:[ update 0 "ONE!"; update 100 "TWO!" ] with
  | `Committed -> ()
  | `Lock_violation -> Alcotest.fail "commit rejected");
  Bess.Server.checkpoint server;
  Bess.Server.crash server;
  let outcome = Bess.Server.recover server in
  Alcotest.(check (list int)) "no losers" [] outcome.losers;
  let after = Bess.Server.read_page server page in
  Alcotest.(check string) "first update redone" "ONE!" (Bytes.sub_string after 0 4);
  Alcotest.(check string) "second update redone" "TWO!" (Bytes.sub_string after 100 4)

(* A transaction prepared before a checkpoint comes back in doubt, with
   its X lock, after a crash: its Prepare record lies behind the
   checkpoint, so only the checkpoint's transaction table names it. *)
let test_checkpoint_keeps_prepared () =
  let db = fresh_db () in
  ignore (seed db);
  let server = Bess.Db.server db in
  let area = Bess.Db.default_area db in
  let page = { Page_id.area; page = 1 } in
  let r = Lock_mgr.page_resource ~area ~page:1 in
  let t = Bess.Server.begin_txn server ~client:1 in
  (match Bess.Server.lock server ~txn:t r Lock_mode.X with
  | `Granted -> ()
  | _ -> Alcotest.fail "lock");
  let before = Bytes.sub (Bess.Server.read_page server page) 400 4 in
  Alcotest.(check bool) "vote yes" true
    (Bess.Server.prepare server ~txn:t ~coordinator:7
       ~updates:[ { Bess.Server.page; offset = 400; before; after = Bytes.of_string "2PC!" } ]
    = `Vote_yes);
  Bess.Server.checkpoint server;
  Bess.Server.crash server;
  let outcome = Bess.Server.recover server in
  Alcotest.(check (list int)) "in doubt" [ t ] (List.map fst outcome.in_doubt);
  Alcotest.(check (list (pair int int))) "prepared, coordinator known" [ (t, 7) ]
    (Bess.Server.prepared_txns server);
  Alcotest.(check bool) "X lock retaken" true
    (Lock_mgr.holds (Bess.Server.locks server) ~txn:t r Lock_mode.X);
  let other = Bess.Server.begin_txn server ~client:2 in
  Alcotest.(check bool) "another writer blocks" true
    (Bess.Server.lock server ~txn:other r Lock_mode.X = `Blocked);
  Bess.Server.abort_client server ~txn:other;
  Bess.Server.commit_prepared server ~txn:t;
  Alcotest.(check string) "decided commit applied" "2PC!"
    (Bytes.sub_string (Bess.Server.read_page server page) 400 4)

(* [read_into] copies exactly what [read_page] would, into any window of
   the caller's buffer, and rejects out-of-range arguments. *)
let prop_read_into =
  let db = lazy (
    let db = fresh_db () in
    ignore (seed db);
    let server = Bess.Db.server db in
    let area = Bess.Db.default_area db in
    let page = { Page_id.area; page = 1 } in
    let txn = Bess.Server.begin_txn server ~client:1 in
    Bess.Server.update_inplace server ~txn page ~offset:0
      (Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff)));
    Bess.Server.commit_inplace server ~txn;
    (server, page)) in
  QCheck.Test.make ~name:"read_into equals a slice of read_page" ~count:500
    QCheck.(quad (int_range (-8) 4104) (int_range (-8) 4104) (int_range 0 64) (int_range (-8) 72))
    (fun (off, len, extra, dst_off) ->
      let server, page = Lazy.force db in
      let dst_len = Stdlib.max 0 len + extra in
      let dst = Bytes.make dst_len '.' in
      let in_range = off >= 0 && len >= 0 && off + len <= 4096 && dst_off >= 0
                     && dst_off + len <= dst_len in
      match Bess.Server.read_into server page ~off dst ~dst_off ~len with
      | exception Invalid_argument _ -> not in_range
      | () ->
          let expected = Bytes.make dst_len '.' in
          Bytes.blit (Bess.Server.read_page server page) off expected dst_off len;
          in_range && Bytes.equal dst expected)

(* 2PC at the server interface: prepare / decide both ways. *)
let test_two_phase_commit_paths () =
  let db = fresh_db () in
  ignore (seed db);
  let server = Bess.Db.server db in
  let area = Bess.Db.default_area db in
  let page = { Page_id.area; page = 1 } in
  let lock txn =
    match Bess.Server.lock server ~txn (Lock_mgr.page_resource ~area ~page:1) Lock_mode.X with
    | `Granted -> ()
    | _ -> Alcotest.fail "lock not granted"
  in
  let current () = Bytes.sub_string (Bess.Server.read_page server page) 300 4 in
  let update after =
    (* The before-image is the page's content at prepare time (the server
       trusts the client's images; recovery undo applies them). *)
    [ { Bess.Server.page; offset = 300; before = Bytes.of_string (current ());
        after = Bytes.of_string after } ]
  in
  (* Prepared then committed. *)
  let t1 = Bess.Server.begin_txn server ~client:1 in
  lock t1;
  Alcotest.(check bool) "vote yes" true
    (Bess.Server.prepare server ~txn:t1 ~coordinator:1 ~updates:(update "YES!") = `Vote_yes);
  Bess.Server.commit_prepared server ~txn:t1;
  Alcotest.(check string) "committed after decide" "YES!" (current ());
  (* Prepared then aborted: the prepared update is rolled back. *)
  let t2 = Bess.Server.begin_txn server ~client:1 in
  lock t2;
  ignore (Bess.Server.prepare server ~txn:t2 ~coordinator:1 ~updates:(update "NO!!"));
  Bess.Server.abort_prepared server ~txn:t2;
  Alcotest.(check string) "aborted prepare rolled back" "YES!" (current ());
  (* Prepare without locks votes no. *)
  let t3 = Bess.Server.begin_txn server ~client:2 in
  Alcotest.(check bool) "no-lock prepare votes no" true
    (Bess.Server.prepare server ~txn:t3 ~coordinator:1 ~updates:(update "HAH!") = `Vote_no)

(* In-doubt transactions survive a crash between prepare and decision. *)
let test_in_doubt_across_crash () =
  let db = fresh_db () in
  ignore (seed db);
  let server = Bess.Db.server db in
  let area = Bess.Db.default_area db in
  let page = { Page_id.area; page = 1 } in
  let t = Bess.Server.begin_txn server ~client:1 in
  (match Bess.Server.lock server ~txn:t (Lock_mgr.page_resource ~area ~page:1) Lock_mode.X with
  | `Granted -> ()
  | _ -> Alcotest.fail "lock");
  let before = Bytes.sub (Bess.Server.read_page server page) 400 4 in
  ignore
    (Bess.Server.prepare server ~txn:t ~coordinator:1
       ~updates:[ { Bess.Server.page; offset = 400; before; after = Bytes.of_string "2PC!" } ]);
  Bess.Server.crash server;
  let outcome = Bess.Server.recover server in
  Alcotest.(check (list int)) "in doubt" [ t ] (List.map fst outcome.in_doubt);
  (* The coordinator's decision arrives: commit. *)
  Bess.Server.commit_prepared server ~txn:t;
  Alcotest.(check string) "decided commit applied" "2PC!"
    (Bytes.sub_string (Bess.Server.read_page server page) 400 4)

(* A prepared transaction takes its X locks back after a restart in log
   order: the order it first wrote the pages, which their hash does not
   follow. A page written twice is locked once. *)
let test_indoubt_relocks_in_log_order () =
  let db = fresh_db () in
  ignore (seed db);
  let server = Bess.Db.server db in
  let area = Bess.Db.default_area db in
  let pages = [ 9; 2; 14; 5; 11; 3 ] in
  let t = Bess.Server.begin_txn server ~client:1 in
  let write page after =
    Bess.Server.update_inplace server ~txn:t { Page_id.area; page } ~offset:64
      (Bytes.of_string after)
  in
  List.iter (fun page -> write page "1st!") pages;
  write 14 "2nd!";
  Alcotest.(check bool) "vote yes" true
    (Bess.Server.prepare server ~txn:t ~coordinator:3 ~updates:[] = `Vote_yes);
  Bess.Server.crash server;
  let relocks () =
    Bess_util.Stats.get (Bess.Server.stats server) "server.indoubt_relocks"
  in
  let before = relocks () in
  let outcome = Bess.Server.recover server in
  Alcotest.(check (list int)) "in doubt" [ t ] (List.map fst outcome.in_doubt);
  Alcotest.(check (list (pair int int))) "coordinator known" [ (t, 3) ]
    (Bess.Server.prepared_txns server);
  Alcotest.(check (list int)) "held in first-write order" pages
    (List.map
       Lock_mgr.minor
       (Lock_mgr.held_resources (Bess.Server.locks server) ~txn:t));
  Alcotest.(check int) "one relock per distinct page" (List.length pages) (relocks () - before);
  Bess.Server.abort_prepared server ~txn:t;
  Alcotest.(check int) "locks released" 0
    (List.length (Lock_mgr.held_resources (Bess.Server.locks server) ~txn:t))

let test_deadlock_detection_between_sessions () =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  let area = Bess.Db.default_area db in
  let r1 = Lock_mgr.page_resource ~area ~page:1 in
  let r2 = Lock_mgr.page_resource ~area ~page:2 in
  let t1 = Bess.Server.begin_txn server ~client:1 in
  let t2 = Bess.Server.begin_txn server ~client:2 in
  Alcotest.(check bool) "t1 r1" true (Bess.Server.lock server ~txn:t1 r1 Lock_mode.X = `Granted);
  Alcotest.(check bool) "t2 r2" true (Bess.Server.lock server ~txn:t2 r2 Lock_mode.X = `Granted);
  Alcotest.(check bool) "t1 waits" true (Bess.Server.lock server ~txn:t1 r2 Lock_mode.X = `Blocked);
  Alcotest.(check bool) "t2 deadlocks" true (Bess.Server.lock server ~txn:t2 r1 Lock_mode.X = `Deadlock);
  Bess.Server.abort_client server ~txn:t2;
  (* After the victim aborts, t1 can proceed. *)
  Alcotest.(check bool) "t1 proceeds" true (Bess.Server.lock server ~txn:t1 r2 Lock_mode.X = `Granted)

(* Regression guard on the group-commit force counter: the e11 bench
   shape (concurrent committers, acks collected per round) at [Group_n
   16] must keep amortising forces. If a code change sneaks a
   per-commit force back into the path, forces/txn snaps back towards 1
   and this trips. *)
let test_group_commit_force_regression () =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  let area = Bess.Db.default_area db in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  ignore (Bess.Session.create_segment s ~slotted_pages:2 ~data_pages:24 ());
  Bess.Session.commit s;
  Bess.Server.set_group_policy server (Bess_wal.Group_commit.Group_n 16);
  let wal = Bess_wal.Log.stats (Bess.Store.log (Bess.Server.store server)) in
  let forces0 = Bess_util.Stats.get wal "log.forces" in
  let committed = ref 0 in
  for round = 1 to 10 do
    let tickets =
      List.init 16 (fun c ->
          let txn = Bess.Server.begin_txn server ~client:(100 + c) in
          let page = { Page_id.area; page = 1 + c } in
          (match
             Bess.Server.lock server ~txn (Lock_mgr.page_resource ~area ~page:page.page)
               Lock_mode.X
           with
          | `Granted -> ()
          | _ -> Alcotest.fail "private page lock should be granted");
          let before = Bytes.sub (Bess.Server.read_page server page) 0 8 in
          let after = Bytes.create 8 in
          Bytes.set_int64_le after 0 (Int64.of_int ((round * 100) + c));
          match
            Bess.Server.commit_client_begin server ~txn
              ~updates:[ { Bess.Server.page; offset = 0; before; after } ]
          with
          | `Committed tk ->
              incr committed;
              tk
          | `Lock_violation -> Alcotest.fail "commit rejected")
    in
    List.iter (Bess.Server.await_commit server) tickets
  done;
  let forces = Bess_util.Stats.get wal "log.forces" - forces0 in
  Alcotest.(check int) "committed all" 160 !committed;
  Alcotest.(check bool)
    (Printf.sprintf "forces (%d) <= committed/8 (%d)" forces (!committed / 8))
    true
    (forces <= !committed / 8)

let suite =
  [
    Alcotest.test_case "callback_invalidation" `Quick test_callback_invalidation;
    Alcotest.test_case "group_commit_force_regression" `Quick test_group_commit_force_regression;
    Alcotest.test_case "intertxn_caching" `Quick test_intertxn_caching_saves_fetches;
    Alcotest.test_case "commit_requires_locks" `Quick test_commit_requires_locks;
    Alcotest.test_case "inplace_commit_rollback" `Quick test_inplace_txn_commit_and_rollback;
    Alcotest.test_case "crash_recovery_full_stack" `Quick test_crash_recovery_full_stack;
    Alcotest.test_case "checkpoint_then_recover" `Quick test_checkpoint_then_recover;
    Alcotest.test_case "checkpoint_recovery_lsn" `Quick test_checkpoint_recovery_lsn;
    Alcotest.test_case "checkpoint_keeps_prepared" `Quick test_checkpoint_keeps_prepared;
    QCheck_alcotest.to_alcotest prop_read_into;
    Alcotest.test_case "two_phase_commit_paths" `Quick test_two_phase_commit_paths;
    Alcotest.test_case "in_doubt_across_crash" `Quick test_in_doubt_across_crash;
    Alcotest.test_case "indoubt_relocks_in_log_order" `Quick test_indoubt_relocks_in_log_order;
    Alcotest.test_case "deadlock_between_sessions" `Quick test_deadlock_detection_between_sessions;
  ]
