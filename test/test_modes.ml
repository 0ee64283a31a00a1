(* Operation modes (section 4): node server, shared-memory mode with the
   SMT and SVMA offsets, copy-on-access IPC accounting, and the exact
   Figure 4 page A/B/C scenario. *)

module Page_id = Bess_cache.Page_id
module Vmem = Bess_vmem.Vmem
module Smt = Bess_cache.Smt
module Two_level = Bess_cache.Two_level

let fresh_setup ?(cache_slots = 8) ?(n_vframes = 16) ?n_procs () =
  let db = Bess.Db.create_memory ~db_id:50 () in
  (* Put some committed pages in the database so fetches return data. *)
  let s = Bess.Db.session db in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"blk" ~size:64
      ~ref_offsets:[||]
  in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:8 () in
  for i = 0 to 7 do
    let o = Bess.Session.create_object s seg ty ~size:64 in
    Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o) (1000 + i)
  done;
  Bess.Session.commit s;
  let node =
    Bess.Node_server.create ~cache_slots ~n_vframes ?n_procs
      (Bess.Fetcher.direct ~client_id:999 (Bess.Db.server db))
  in
  (db, seg, node)

let data_page (seg : Bess.Session.seg_rt) i =
  { Page_id.area = seg.data_disk.Bess_storage.Seg_addr.area;
    page = seg.data_disk.Bess_storage.Seg_addr.first_page + i }

let test_shm_same_vframe_all_processes () =
  let _db, seg, node = fresh_setup ~n_procs:2 () in
  let page = data_page seg 0 in
  let addr0, vf0 = Bess.Node_server.shm_access node ~proc:0 page ~write:false in
  let addr1, vf1 = Bess.Node_server.shm_access node ~proc:1 page ~write:false in
  (* "If a process maps a page at some frame, all processes see this page
     at this frame (but possibly at different address)." *)
  Alcotest.(check int) "same virtual frame" vf0 vf1;
  (* SVMA offsets agree even though PVMA addresses may differ. *)
  Alcotest.(check int) "same svma"
    (Bess.Node_server.svma_of_addr node ~proc:0 addr0)
    (Bess.Node_server.svma_of_addr node ~proc:1 addr1)

let test_shm_shared_frame_is_really_shared () =
  let _db, seg, node = fresh_setup ~n_procs:2 () in
  let procs = Bess.Node_server.procs node in
  let page = data_page seg 0 in
  let addr0, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:true in
  let addr1, _ = Bess.Node_server.shm_access node ~proc:1 page ~write:false in
  (* A store by P0 is visible to P1 without any copying: in-place access
     on the shared cache. *)
  Vmem.write_i64 procs.(0).Bess.Node_server.pvma addr0 778899;
  Alcotest.(check int) "no-copy sharing" 778899 (Vmem.read_i64 procs.(1).Bess.Node_server.pvma addr1);
  Bess.Node_server.commit node

let test_shm_pointer_translation () =
  let _db, seg, node = fresh_setup ~n_procs:2 () in
  let page = data_page seg 3 in
  let addr0, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:false in
  let svma = Bess.Node_server.svma_of_addr node ~proc:0 (addr0 + 24) in
  (* shm_ref<T>: P1 resolves P0's shared pointer through its own PVMA. *)
  let addr1, _ = Bess.Node_server.shm_access node ~proc:1 page ~write:false in
  Alcotest.(check int) "translated pointer lands on the same byte"
    (addr1 + 24)
    (Bess.Node_server.addr_of_svma node ~proc:1 svma)

(* Figure 4's scenario, replayed literally with a 2-slot cache:
   (a) P1 maps A at the first frame, P2 maps B at another;
   (b) P2 maps C (B replaced), then P1 accesses C through the SVMA
       mapping and sees it at the same virtual frame as P2. *)
let test_figure4_scenario () =
  let _db, seg, node = fresh_setup ~cache_slots:2 ~n_vframes:6 ~n_procs:2 () in
  let page_a = data_page seg 0 in
  let page_b = data_page seg 1 in
  let page_c = data_page seg 2 in
  let _, vf_a = Bess.Node_server.shm_access node ~proc:0 page_a ~write:false in
  let _, vf_b = Bess.Node_server.shm_access node ~proc:1 page_b ~write:false in
  Alcotest.(check bool) "A and B at distinct frames" true (vf_a <> vf_b);
  (* P2 accesses C: the 2-slot cache must replace something. *)
  let _, vf_c = Bess.Node_server.shm_access node ~proc:1 page_c ~write:false in
  Alcotest.(check bool) "C got its own virtual frame" true (vf_c <> vf_a && vf_c <> vf_b);
  (* P1 now accesses C: the SMT maps it at the same virtual frame. *)
  let _, vf_c' = Bess.Node_server.shm_access node ~proc:0 page_c ~write:false in
  Alcotest.(check int) "same frame for P1" vf_c vf_c';
  (* The replaced page's SMT entry was released. *)
  let smt = Bess.Node_server.smt node in
  Alcotest.(check bool) "victim's SMT frame released" true
    (Smt.vframe_of smt page_a = None || Smt.vframe_of smt page_b = None)

let test_coa_ipc_accounting () =
  let _db, seg, node = fresh_setup () in
  let page = data_page seg 0 in
  let before_msgs = Bess_util.Stats.get (Bess.Node_server.stats node) "node.ipc_messages" in
  let bytes = Bess.Node_server.coa_fetch node page ~write:false in
  Alcotest.(check int) "page-sized copy" 4096 (Bytes.length bytes);
  let after_msgs = Bess_util.Stats.get (Bess.Node_server.stats node) "node.ipc_messages" in
  Alcotest.(check int) "two IPC messages per fetch" 2 (after_msgs - before_msgs);
  Alcotest.(check bool) "bytes accounted" true
    (Bess_util.Stats.get (Bess.Node_server.stats node) "node.ipc_bytes" >= 4096);
  (* The copy is private: mutating it does not touch the shared cache. *)
  Bytes.set bytes 0 'Z';
  let again = Bess.Node_server.coa_fetch node page ~write:false in
  Alcotest.(check bool) "private copy isolated" true (Bytes.get again 0 <> 'Z');
  Bess.Node_server.commit node

let test_coa_write_back_visible_in_shm () =
  let _db, seg, node = fresh_setup ~n_procs:1 () in
  let procs = Bess.Node_server.procs node in
  let page = data_page seg 0 in
  let copy = Bess.Node_server.coa_fetch node page ~write:true in
  Bess_util.Codec.set_i64 copy 16 31415;
  Bess.Node_server.coa_write_back node page copy;
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:false in
  Alcotest.(check int) "write-back visible through shared cache" 31415
    (Vmem.read_i64 procs.(0).Bess.Node_server.pvma (addr + 16));
  Bess.Node_server.commit node

let test_node_commit_reaches_server () =
  let db, seg, node = fresh_setup ~n_procs:1 () in
  let procs = Bess.Node_server.procs node in
  let page = data_page seg 5 in
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:true in
  Vmem.write_i64 procs.(0).Bess.Node_server.pvma (addr + 8) 5150;
  Bess.Node_server.commit node;
  (* A plain direct session reads the committed value from the server. *)
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let bytes = Bess.Server.read_page (Bess.Db.server db) page in
  Alcotest.(check int) "committed through node server" 5150 (Bess_util.Codec.get_i64 bytes 8);
  Bess.Session.commit s

let test_node_abort_discards () =
  let _db, seg, node = fresh_setup ~n_procs:1 () in
  let procs = Bess.Node_server.procs node in
  let page = data_page seg 6 in
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:true in
  let original = Vmem.read_i64 procs.(0).Bess.Node_server.pvma addr in
  Vmem.write_i64 procs.(0).Bess.Node_server.pvma addr 666;
  Bess.Node_server.abort node;
  (* Re-access fetches the clean copy from the server. *)
  let addr2, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:false in
  Alcotest.(check int) "abort discarded dirty shared page" original
    (Vmem.read_i64 procs.(0).Bess.Node_server.pvma addr2);
  Bess.Node_server.commit node

(* A node-server commit interrupted mid-apply leaves logged updates at
   the upstream; aborting rolls them back with the logged before-images,
   which must be the committed bytes, not zeros. A one-slot upstream
   cache whose every page flush fails interrupts the apply at the second
   page. *)
let test_interrupted_commit_abort_restores () =
  let db = Bess.Db.create_memory ~cache_slots:1 ~db_id:51 () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:2 () in
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  let node =
    Bess.Node_server.create ~cache_slots:4 ~n_procs:1
      (Bess.Fetcher.direct ~client_id:998 (Bess.Db.server db))
  in
  let procs = Bess.Node_server.procs node in
  let write v =
    for i = 0 to 1 do
      let addr, _ = Bess.Node_server.shm_access node ~proc:0 (data_page seg i) ~write:true in
      Vmem.write_i64 procs.(0).Bess.Node_server.pvma (addr + 8) (v + i)
    done
  in
  write 1000;
  Bess.Node_server.commit node;
  let upstream i = Bess.Server.read_page (Bess.Db.server db) (data_page seg i) in
  let committed = List.map upstream [ 0; 1 ] in
  write 2000;
  Fun.protect ~finally:Bess_fault.Fault.reset (fun () ->
      Bess_fault.Fault.configure "page.flush.eio" (Bess_fault.Fault.Every_n 1);
      match Bess.Node_server.commit node with
      | () -> Alcotest.fail "the commit should have been interrupted"
      | exception Bess_fault.Fault.Injected _ -> Bess.Node_server.abort node);
  List.iteri
    (fun i before ->
      Alcotest.(check int)
        (Printf.sprintf "page %d keeps its committed value" i)
        (1000 + i)
        (Bess_util.Codec.get_i64 (upstream i) 8);
      Alcotest.(check bool) (Printf.sprintf "page %d is byte-identical" i) true
        (Bytes.equal before (upstream i)))
    committed

let test_latch_accounting () =
  let _db, seg, node = fresh_setup ~n_procs:1 () in
  for i = 0 to 3 do
    ignore (Bess.Node_server.shm_access node ~proc:0 (data_page seg i) ~write:false)
  done;
  Alcotest.(check int) "one latch per access" 4
    (Bess_util.Stats.get (Bess.Node_server.stats node) "node.latch_acquires");
  Bess.Node_server.commit node

(* The shared cache counts each access once: a hit, or a miss that
   loads the page. A 4-slot cache over 8 pages, visited in both modes,
   takes hits, misses and evictions. *)
let test_shared_cache_counts_each_access_once () =
  let _db, seg, node = fresh_setup ~cache_slots:4 ~n_procs:1 () in
  let pages = [ 0; 1; 0; 2; 3; 4; 0; 5; 5; 6; 7; 1; 2; 2 ] in
  List.iteri
    (fun i p ->
      if i mod 3 = 0 then ignore (Bess.Node_server.coa_fetch node (data_page seg p) ~write:false)
      else ignore (Bess.Node_server.shm_access node ~proc:0 (data_page seg p) ~write:false))
    pages;
  let get = Bess_util.Stats.get (Bess_cache.Cache.stats (Bess.Node_server.cache node)) in
  Alcotest.(check int) "misses = loads" (get "cache.loads") (get "cache.misses");
  Alcotest.(check int) "hits + misses = accesses" (List.length pages)
    (get "cache.hits" + get "cache.misses");
  Alcotest.(check bool) "the stream evicted" true (get "cache.evictions" > 0);
  Bess.Node_server.commit node

(* A dirty shared page evicted mid-transaction is parked until commit
   ships it. The parked image belongs to that transaction alone: a
   2-slot shared cache parks page 0 after three pages are touched. *)
let park_page0 node procs seg v =
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 (data_page seg 0) ~write:true in
  Vmem.write_i64 procs.(0).Bess.Node_server.pvma addr v;
  ignore (Bess.Node_server.shm_access node ~proc:0 (data_page seg 1) ~write:false);
  ignore (Bess.Node_server.shm_access node ~proc:0 (data_page seg 2) ~write:false);
  Alcotest.(check bool) "page 0 parked" true
    (Bess_util.Stats.get (Bess.Node_server.stats node) "node.dirty_parked" > 0)

let node_read node procs seg ~off =
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 (data_page seg 0) ~write:false in
  Vmem.read_i64 procs.(0).Bess.Node_server.pvma (addr + off)

let upstream_read db seg ~off =
  Bess_util.Codec.get_i64 (Bess.Server.read_page (Bess.Db.server db) (data_page seg 0)) off

(* A commit leaves the pages it shipped clean: the committed page 0,
   evicted by two later reads, is not parked as if dirty, and the node
   reads back the committed value. *)
let test_commit_cleans_shipped_pages () =
  let db, seg, node = fresh_setup ~cache_slots:2 ~n_procs:1 () in
  let procs = Bess.Node_server.procs node in
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 (data_page seg 0) ~write:true in
  Vmem.write_i64 procs.(0).Bess.Node_server.pvma addr 4242;
  Bess.Node_server.commit node;
  ignore (Bess.Node_server.shm_access node ~proc:0 (data_page seg 1) ~write:false);
  ignore (Bess.Node_server.shm_access node ~proc:0 (data_page seg 2) ~write:false);
  Alcotest.(check int) "nothing parked" 0
    (Bess_util.Stats.get (Bess.Node_server.stats node) "node.dirty_parked");
  Alcotest.(check int) "upstream holds the commit" 4242 (upstream_read db seg ~off:0);
  Alcotest.(check int) "the node reads it back" 4242 (node_read node procs seg ~off:0);
  Bess.Node_server.commit node

(* An abort voids the parked image: the next transaction reads the
   upstream copy, and committing another field of the page does not
   carry the aborted write upstream. *)
let test_abort_voids_parked_writes () =
  let db, seg, node = fresh_setup ~cache_slots:2 ~n_procs:1 () in
  let procs = Bess.Node_server.procs node in
  let original = upstream_read db seg ~off:0 in
  park_page0 node procs seg 999;
  Bess.Node_server.abort node;
  Alcotest.(check int) "next txn reads the upstream copy" original
    (node_read node procs seg ~off:0);
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 (data_page seg 0) ~write:true in
  Vmem.write_i64 procs.(0).Bess.Node_server.pvma (addr + 8) 42;
  Bess.Node_server.commit node;
  Alcotest.(check int) "the other field committed" 42 (upstream_read db seg ~off:8);
  Alcotest.(check int) "the aborted write stayed out" original (upstream_read db seg ~off:0)

(* A commit ships the parked image, after which it is spent: a newer
   upstream value, committed through another node, is what the next
   transaction reads. *)
let test_commit_spends_parked_writes () =
  let db, seg, node = fresh_setup ~cache_slots:2 ~n_procs:1 () in
  let procs = Bess.Node_server.procs node in
  park_page0 node procs seg 999;
  Bess.Node_server.commit node;
  Alcotest.(check int) "the parked image was shipped" 999 (upstream_read db seg ~off:0);
  let other =
    Bess.Node_server.create ~cache_slots:2 ~n_procs:1
      (Bess.Fetcher.direct ~client_id:997 (Bess.Db.server db))
  in
  let other_procs = Bess.Node_server.procs other in
  let addr, _ = Bess.Node_server.shm_access other ~proc:0 (data_page seg 0) ~write:true in
  Vmem.write_i64 other_procs.(0).Bess.Node_server.pvma addr 7;
  Bess.Node_server.commit other;
  Alcotest.(check int) "upstream holds the newer value" 7 (upstream_read db seg ~off:0);
  Alcotest.(check int) "the node reads it" 7 (node_read node procs seg ~off:0);
  Bess.Node_server.commit node

(* Callback locking reaches the node server. A node that read a page
   and committed keeps it cached; another node's X request calls it back,
   the idle node drops the page, and its next read fetches the new
   value instead of serving the stale copy. *)
let test_callback_drops_stale_page () =
  let db, seg, node = fresh_setup ~n_procs:1 () in
  let procs = Bess.Node_server.procs node in
  Alcotest.(check int) "the committed value" (upstream_read db seg ~off:0)
    (node_read node procs seg ~off:0);
  Bess.Node_server.commit node;
  let other =
    Bess.Node_server.create ~cache_slots:2 ~n_procs:1
      (Bess.Fetcher.direct ~client_id:997 (Bess.Db.server db))
  in
  let addr, _ = Bess.Node_server.shm_access other ~proc:0 (data_page seg 0) ~write:true in
  Vmem.write_i64 (Bess.Node_server.procs other).(0).Bess.Node_server.pvma addr 7;
  Bess.Node_server.commit other;
  Alcotest.(check int) "upstream holds the newer value" 7 (upstream_read db seg ~off:0);
  Alcotest.(check int) "the node reads it, not its stale copy" 7 (node_read node procs seg ~off:0);
  Bess.Node_server.commit node

(* While the node's transaction is open, it refuses a callback: the
   conflicting request blocks and the node's page stays mapped. *)
let test_callback_refused_while_txn_open () =
  let db, seg, node = fresh_setup ~n_procs:1 () in
  let pvma = (Bess.Node_server.procs node).(0).Bess.Node_server.pvma in
  let page = data_page seg 0 in
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:false in
  let server = Bess.Db.server db in
  let refused () = Bess_util.Stats.get (Bess.Server.stats server) "server.callbacks_refused" in
  let refused_before = refused () in
  let txn = Bess.Server.begin_txn server ~client:77 in
  let verdict =
    Bess.Server.lock server ~txn
      (Bess_lock.Lock_mgr.page_resource ~area:page.area ~page:page.page)
      Bess_lock.Lock_mode.X
  in
  Alcotest.(check bool) "the conflicting request blocks" true (verdict = `Blocked);
  Alcotest.(check int) "the node refused the callback" (refused_before + 1) (refused ());
  Alcotest.(check bool) "the node's page stays mapped" true (Vmem.frame_at pvma addr <> None);
  Alcotest.(check int) "and readable" (upstream_read db seg ~off:0) (Vmem.read_i64 pvma addr);
  Bess.Server.abort_client server ~txn;
  Bess.Node_server.commit node

(* A read access maps the page read-only: a store through it faults
   instead of changing the shared cache untracked. A write access
   upgrades the mapping; commit puts it back to read-only. *)
let test_shm_read_access_is_read_only () =
  let db, seg, node = fresh_setup ~n_procs:1 () in
  let pvma = (Bess.Node_server.procs node).(0).Bess.Node_server.pvma in
  let page = data_page seg 0 in
  let store_faults addr =
    match Vmem.write_i64 pvma addr 42 with
    | () -> false
    | exception Vmem.Access_violation _ -> true
  in
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:false in
  Alcotest.(check bool) "a store through a read access faults" true (store_faults addr);
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:true in
  Alcotest.(check bool) "a write access upgrades the mapping" false (store_faults addr);
  Bess.Node_server.commit node;
  Alcotest.(check int) "the tracked store was shipped" 42 (upstream_read db seg ~off:0);
  Alcotest.(check bool) "commit puts the mapping back to read-only" true (store_faults addr)

(* A node serves 4096-byte pages. Over a database of 8 KB pages both
   fetchers refuse the short buffer, rather than copying the first half
   of each page into it. *)
let test_fetch_refuses_other_page_size () =
  let db = Bess.Db.create_memory ~page_size:8192 ~db_id:52 () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: a 4096-byte buffer took an 8 KB page" what
    | exception Invalid_argument _ -> ()
  in
  let node =
    Bess.Node_server.create ~cache_slots:4 ~n_procs:1
      (Bess.Fetcher.direct ~client_id:995 (Bess.Db.server db))
  in
  refused "node over a direct fetcher" (fun () ->
      Bess.Node_server.shm_access node ~proc:0 (data_page seg 0) ~write:false);
  let net = Bess.Remote.network () in
  Bess.Remote.serve net (Bess.Db.server db);
  let f = Bess.Remote.connect net ~client_id:996 db in
  let txn = f.f_begin () in
  refused "remote fetcher" (fun () ->
      f.f_fetch_page ~txn (data_page seg 0) ~mode:Bess_lock.Lock_mode.S ~into:(Bytes.create 4096));
  f.f_fetch_page ~txn (data_page seg 0) ~mode:Bess_lock.Lock_mode.S ~into:(Bytes.create 8192);
  f.f_abort ~txn

let suite =
  [
    Alcotest.test_case "shm_same_vframe" `Quick test_shm_same_vframe_all_processes;
    Alcotest.test_case "shm_no_copy_sharing" `Quick test_shm_shared_frame_is_really_shared;
    Alcotest.test_case "shm_pointer_translation" `Quick test_shm_pointer_translation;
    Alcotest.test_case "figure4_scenario" `Quick test_figure4_scenario;
    Alcotest.test_case "coa_ipc_accounting" `Quick test_coa_ipc_accounting;
    Alcotest.test_case "coa_write_back" `Quick test_coa_write_back_visible_in_shm;
    Alcotest.test_case "node_commit" `Quick test_node_commit_reaches_server;
    Alcotest.test_case "node_abort" `Quick test_node_abort_discards;
    Alcotest.test_case "node_interrupted_commit_abort_restores" `Quick
      test_interrupted_commit_abort_restores;
    Alcotest.test_case "latch_accounting" `Quick test_latch_accounting;
    Alcotest.test_case "shared_cache_counts_each_access_once" `Quick
      test_shared_cache_counts_each_access_once;
    Alcotest.test_case "abort_voids_parked_writes" `Quick test_abort_voids_parked_writes;
    Alcotest.test_case "commit_spends_parked_writes" `Quick test_commit_spends_parked_writes;
    Alcotest.test_case "commit_cleans_shipped_pages" `Quick test_commit_cleans_shipped_pages;
    Alcotest.test_case "callback_drops_stale_page" `Quick test_callback_drops_stale_page;
    Alcotest.test_case "callback_refused_while_txn_open" `Quick
      test_callback_refused_while_txn_open;
    Alcotest.test_case "shm_read_access_is_read_only" `Quick test_shm_read_access_is_read_only;
    Alcotest.test_case "fetch_refuses_other_page_size" `Quick test_fetch_refuses_other_page_size;
  ]
