(* Operation modes (section 4): node server, shared-memory mode with the
   SMT and SVMA offsets, copy-on-access IPC accounting, and the exact
   Figure 4 page A/B/C scenario. *)

module Page_id = Bess_cache.Page_id
module Vmem = Bess_vmem.Vmem
module Smt = Bess_cache.Smt
module Two_level = Bess_cache.Two_level

let fresh_setup ?(cache_slots = 8) ?(n_vframes = 16) () =
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
    Bess.Node_server.create ~cache_slots ~n_vframes ~id:999 (Bess.Db.server db)
  in
  (db, seg, node)

let data_page (seg : Bess.Session.seg_rt) i =
  { Page_id.area = seg.data_disk.Bess_storage.Seg_addr.area;
    page = seg.data_disk.Bess_storage.Seg_addr.first_page + i }

let test_shm_same_vframe_all_processes () =
  let _db, seg, node = fresh_setup () in
  let _procs = Bess.Node_server.register_processes node 2 in
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
  let _db, seg, node = fresh_setup () in
  let procs = Bess.Node_server.register_processes node 2 in
  let page = data_page seg 0 in
  let addr0, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:true in
  let addr1, _ = Bess.Node_server.shm_access node ~proc:1 page ~write:false in
  (* A store by P0 is visible to P1 without any copying: in-place access
     on the shared cache. *)
  Vmem.write_i64 procs.(0).Bess.Node_server.pvma addr0 778899;
  Alcotest.(check int) "no-copy sharing" 778899 (Vmem.read_i64 procs.(1).Bess.Node_server.pvma addr1);
  Bess.Node_server.commit node

let test_shm_pointer_translation () =
  let _db, seg, node = fresh_setup () in
  let _ = Bess.Node_server.register_processes node 2 in
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
  let _db, seg, node = fresh_setup ~cache_slots:2 ~n_vframes:6 () in
  let _ = Bess.Node_server.register_processes node 2 in
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
  let _db, seg, node = fresh_setup () in
  let procs = Bess.Node_server.register_processes node 1 in
  let page = data_page seg 0 in
  let copy = Bess.Node_server.coa_fetch node page ~write:true in
  Bess_util.Codec.set_i64 copy 16 31415;
  Bess.Node_server.coa_write_back node page copy;
  let addr, _ = Bess.Node_server.shm_access node ~proc:0 page ~write:false in
  Alcotest.(check int) "write-back visible through shared cache" 31415
    (Vmem.read_i64 procs.(0).Bess.Node_server.pvma (addr + 16));
  Bess.Node_server.commit node

let test_node_commit_reaches_server () =
  let db, seg, node = fresh_setup () in
  let procs = Bess.Node_server.register_processes node 1 in
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
  let _db, seg, node = fresh_setup () in
  let procs = Bess.Node_server.register_processes node 1 in
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
  let node = Bess.Node_server.create ~cache_slots:4 ~id:998 (Bess.Db.server db) in
  let procs = Bess.Node_server.register_processes node 1 in
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
  let _db, seg, node = fresh_setup () in
  let _ = Bess.Node_server.register_processes node 1 in
  for i = 0 to 3 do
    ignore (Bess.Node_server.shm_access node ~proc:0 (data_page seg i) ~write:false)
  done;
  Alcotest.(check int) "one latch per access" 4
    (Bess_util.Stats.get (Bess.Node_server.stats node) "node.latch_acquires");
  Bess.Node_server.commit node

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
  ]
