(* Deeper session behaviours: replacement under pool pressure (the
   copy-on-access frame-state clock driving real unmaps and refetches),
   partial (per-page) segment fetch, the with_txn combinator, forward
   reuse, and cache dropping. *)

module Vmem = Bess_vmem.Vmem

let fresh_db =
  let n = ref 400 in
  fun ?cache_slots () ->
    incr n;
    Bess.Db.create_memory ?cache_slots ~db_id:!n ()

let ty_of db =
  Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"d" ~size:32
    ~ref_offsets:[| 0 |]

(* Build a ring big enough that a tiny private pool must replace pages
   constantly; the traversal must still complete correctly. *)
let test_replacement_under_pool_pressure () =
  let db = fresh_db () in
  let ty = ty_of db in
  let builder = Bess.Db.session ~pool_slots:4096 db in
  Bess.Session.begin_txn builder;
  let n = 600 in
  let nodes = Array.make n 0 in
  let seg = ref None and in_seg = ref 0 in
  for i = 0 to n - 1 do
    if !seg = None || !in_seg >= 60 then begin
      seg := Some (Bess.Session.create_segment builder ~slotted_pages:1 ~data_pages:1 ());
      in_seg := 0
    end;
    nodes.(i) <- Bess.Session.create_object builder (Option.get !seg) ty ~size:32;
    Vmem.write_i64 (Bess.Session.mem builder) (Bess.Session.obj_data builder nodes.(i) + 8) i;
    incr in_seg
  done;
  for i = 0 to n - 1 do
    Bess.Session.write_ref builder
      ~data_addr:(Bess.Session.obj_data builder nodes.(i))
      (Some nodes.((i + 1) mod n))
  done;
  Bess.Session.set_root builder ~name:"head" nodes.(0);
  Bess.Session.commit builder;
  (* 10 segments x (1 slotted + 1 data) = 20 pages minimum; give the
     reader a pool of 14 so the clock must evict data pages. Slot pages
     are pinned, so 10 slots stay; 4 float. *)
  let reader = Bess.Db.session ~pool_slots:14 db in
  Bess.Session.begin_txn reader;
  let head = Option.get (Bess.Session.root reader "head") in
  let sum = ref 0 in
  let cur = ref head in
  for _ = 1 to 2 * n do
    sum := !sum + Vmem.read_i64 (Bess.Session.mem reader) (Bess.Session.obj_data reader !cur + 8);
    cur := Option.get (Bess.Session.read_ref reader ~data_addr:(Bess.Session.obj_data reader !cur))
  done;
  Bess.Session.commit reader;
  Alcotest.(check int) "two full loops sum correctly" (2 * (n * (n - 1) / 2)) !sum;
  let st = Bess_util.Stats.get (Bess_cache.Cache.stats (Bess.Session.pool reader)) "cache.evictions" in
  Alcotest.(check bool) "replacement actually happened" true (st > 0)

let test_partial_fetch_mode () =
  let db = fresh_db () in
  let ty = ty_of db in
  let builder = Bess.Db.session db in
  Bess.Session.begin_txn builder;
  (* One segment with 8 data pages; objects placed across all of them. *)
  let seg = Bess.Session.create_segment builder ~slotted_pages:1 ~data_pages:8 () in
  let objs = Array.init 60 (fun i ->
      let o = Bess.Session.create_object builder seg ty ~size:500 in
      Vmem.write_i64 (Bess.Session.mem builder) (Bess.Session.obj_data builder o + 8) i;
      o)
  in
  Bess.Session.set_root builder ~name:"o0" objs.(0);
  Bess.Session.commit builder;
  let oid_last = Bess.Session.oid_of builder objs.(59) in
  (* A reader in single-page-fetch mode ("only the pieces needed are
     fetched"): touching one object fetches only its page(s). *)
  let reader = Bess.Db.session db in
  Bess.Session.set_fetch_whole_segments reader false;
  Bess.Session.begin_txn reader;
  let o0 = Option.get (Bess.Session.root reader "o0") in
  Alcotest.(check int) "first object reads" 0
    (Vmem.read_i64 (Bess.Session.mem reader) (Bess.Session.obj_data reader o0 + 8));
  let fetched_pages =
    Bess_cache.Cache.n_resident (Bess.Session.pool reader)
  in
  Alcotest.(check bool) "only a few pages resident" true (fetched_pages < 6);
  (* The far object faults its own page in on demand. *)
  let o59 = Bess.Session.by_oid reader oid_last in
  Alcotest.(check int) "far object reads too" 59
    (Vmem.read_i64 (Bess.Session.mem reader) (Bess.Session.obj_data reader o59 + 8));
  Bess.Session.commit reader

let test_with_txn_combinator () =
  let db = fresh_db () in
  let ty = ty_of db in
  let s = Bess.Db.session db in
  let obj =
    Bess.Session.with_txn s (fun () ->
        let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
        let o = Bess.Session.create_object s seg ty ~size:32 in
        Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) 11;
        o)
  in
  (* An exception inside with_txn aborts cleanly. *)
  let raised =
    try
      Bess.Session.with_txn s (fun () ->
          Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s obj + 8) 99;
          failwith "boom")
    with Failure _ -> true
  in
  Alcotest.(check bool) "exception propagates" true raised;
  Alcotest.(check bool) "no txn left open" false (Bess.Session.in_txn s);
  Bess.Session.with_txn s (fun () ->
      Alcotest.(check int) "aborted write rolled back" 11
        (Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s obj + 8)))

let test_forward_object_reuse () =
  let db1 = fresh_db () in
  let db2 = fresh_db () in
  let ty1 = ty_of db1 and ty2 = ty_of db2 in
  let s = Bess.Db.session db1 in
  Bess.Db.attach db2 s;
  Bess.Session.begin_txn s;
  let seg1 = Bess.Session.create_segment s ~db_id:(Bess.Db.db_id db1) ~slotted_pages:1 ~data_pages:1 () in
  let seg2 = Bess.Session.create_segment s ~db_id:(Bess.Db.db_id db2) ~slotted_pages:1 ~data_pages:1 () in
  let target = Bess.Session.create_object s seg2 ty2 ~size:32 in
  let srcs = Array.init 5 (fun _ -> Bess.Session.create_object s seg1 ty1 ~size:32) in
  Array.iter
    (fun src ->
      Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s src) (Some target))
    srcs;
  (* Five references to the same foreign object share one forward. *)
  Alcotest.(check int) "one forward object for five refs" 1
    (Bess_util.Stats.get (Bess.Session.stats s) "session.forwards_created");
  Bess.Session.commit s

let test_drop_all_cached_forces_refetch () =
  let db = fresh_db () in
  let ty = ty_of db in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let o = Bess.Session.create_object s seg ty ~size:32 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) 5;
  Bess.Session.set_root s ~name:"o" o;
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  let before = Bess_util.Stats.get (Bess.Session.stats s) "session.slotted_faults" in
  Bess.Session.begin_txn s;
  let o' = Option.get (Bess.Session.root s "o") in
  Alcotest.(check int) "value refetched" 5
    (Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o' + 8));
  Bess.Session.commit s;
  Alcotest.(check bool) "a fresh slotted fault happened" true
    (Bess_util.Stats.get (Bess.Session.stats s) "session.slotted_faults" > before)

let test_node_server_eviction_integration () =
  (* A node server with a 3-slot shared cache serving 2 processes over 8
     pages: the two-level clock must keep evicting; SMT entries must stay
     consistent; every read must return the committed value. *)
  let db = fresh_db () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:8 () in
  Bess.Session.commit s;
  let node =
    Bess.Node_server.create ~cache_slots:3 ~n_vframes:16 ~n_procs:2
      (Bess.Fetcher.direct ~client_id:888 (Bess.Db.server db))
  in
  let procs = Bess.Node_server.procs node in
  let page i =
    { Bess_cache.Page_id.area = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.area;
      page = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.first_page + i }
  in
  (* Write a marker into each page (through the node), commit. *)
  for i = 0 to 7 do
    let addr, _ = Bess.Node_server.shm_access node ~proc:0 (page i) ~write:true in
    Vmem.write_i64 procs.(0).Bess.Node_server.pvma addr (100 + i)
  done;
  Bess.Node_server.commit node;
  (* Interleaved reads from both processes across all pages, far beyond
     cache capacity. *)
  let prng = Bess_util.Prng.create 17 in
  for _ = 1 to 400 do
    let i = Bess_util.Prng.int prng 8 in
    let p = Bess_util.Prng.int prng 2 in
    let addr, _ = Bess.Node_server.shm_access node ~proc:p (page i) ~write:false in
    Alcotest.(check int) "value stable under thrashing" (100 + i)
      (Vmem.read_i64 procs.(p).Bess.Node_server.pvma addr)
  done;
  Bess.Node_server.commit node;
  Bess_cache.Two_level.check_invariants (Bess.Node_server.clock node);
  Alcotest.(check bool) "SMT bounded by cache occupancy" true
    (Bess_cache.Smt.n_assigned (Bess.Node_server.smt node) <= 3)

let suite =
  [
    Alcotest.test_case "replacement_under_pressure" `Quick test_replacement_under_pool_pressure;
    Alcotest.test_case "partial_fetch_mode" `Quick test_partial_fetch_mode;
    Alcotest.test_case "with_txn" `Quick test_with_txn_combinator;
    Alcotest.test_case "forward_reuse" `Quick test_forward_object_reuse;
    Alcotest.test_case "drop_all_cached" `Quick test_drop_all_cached_forces_refetch;
    Alcotest.test_case "node_eviction_integration" `Quick test_node_server_eviction_integration;
  ]
