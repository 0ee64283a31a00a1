(* oo_sessions: the paper's same-machine client path (sections 2.1-2.3).

   One database holds a ring of small objects. Two direct sessions take
   turns: each transaction starts at a random object by OID, follows
   references, bumps a counter in a few random objects and commits under
   an immediate log force, with no think time. Both page pools and the
   server cache hold the whole database: a pool smaller than the working
   set dies with [Vmem.Access_violation "recursive fault in handler"]
   (README.md, pitfalls). vmem accessors, the fault waves, swizzling,
   write detection and the commit-time unswizzle and diff do the work; a
   write to a page the other session caches calls that session back, so
   faults continue in steady state. No network, scheduler or lock
   contention. *)

open Common
module Session = Bess.Session
module Vmem = Bess_vmem.Vmem
module Stats = Bess_util.Stats
module Prng = Bess_util.Prng
module Span = Bess_obs.Span

type sizes = {
  objects : int;
  per_seg : int;
  hops : int;  (** references followed per transaction *)
  updates : int;  (** counters bumped per transaction *)
  pool_slots : int;
  cache_slots : int;
  setups : int;
  warmup_txns : int;
  txns_per_second : int;  (** timed transactions per second of --seconds *)
  chunk : int;  (** transactions per calibration segment *)
  recoveries : int;  (** crash-and-restart passes; recovery_s is their median *)
}

let full =
  { objects = 50_000; per_seg = 500; hops = 400; updates = 4; pool_slots = 4096;
    cache_slots = 4096; setups = 3; warmup_txns = 400; txns_per_second = 950; chunk = 64; recoveries = 5 }

let smoke =
  { objects = 2_000; per_seg = 250; hops = 100; updates = 4; pool_slots = 1024;
    cache_slots = 1024; setups = 1; warmup_txns = 10; txns_per_second = 20; chunk = 8; recoveries = 1 }

(* Object layout: the ring reference at 0, the ring position at 8, the
   update counter at 16 (data pages are allocated zeroed). *)
let node_size = 32
let position_off = 8
let counter_off = 16
let db_id = 41

type world = { db : Bess.Db.t; oids : Bess.Oid.t array; clients : Session.t array }

let build sz =
  let db = Bess.Db.create_memory ~cache_slots:sz.cache_slots ~db_id () in
  let s = Bess.Db.session ~pool_slots:sz.pool_slots db in
  let mem = Session.mem s in
  let ty =
    Bess.Type_desc.register
      (Bess.Catalog.types (Bess.Db.catalog db))
      ~name:"perf_node" ~size:node_size ~ref_offsets:[| 0 |]
  in
  let data_pages = ((sz.per_seg * node_size * 5 / 4) + 4095) / 4096 in
  let slotted_pages = Bess.Layout.slotted_pages ~n_slots:(sz.per_seg + 4) ~page_size:4096 in
  Session.begin_txn s;
  let seg = ref None in
  let nodes =
    Array.init sz.objects (fun i ->
        if i mod sz.per_seg = 0 then
          seg := Some (Session.create_segment s ~slotted_pages ~data_pages ());
        let a = Session.create_object s (Option.get !seg) ty ~size:node_size in
        Vmem.write_i64 mem (Session.obj_data s a + position_off) i;
        a)
  in
  Array.iteri
    (fun i a ->
      Session.write_ref s ~data_addr:(Session.obj_data s a) (Some nodes.((i + 1) mod sz.objects)))
    nodes;
  Session.set_root s ~name:"perf_ring" nodes.(0);
  let oids = Array.map (Session.oid_of s) nodes in
  Session.commit s;
  (* The session that made the ring keeps no cached copy, so no client
     write calls it back. *)
  Session.drop_all_cached s;
  { db; oids; clients = Array.init 2 (fun _ -> Bess.Db.session ~pool_slots:sz.pool_slots db) }

(* What a traversal of [hops] objects from [start] must read. *)
let ring_sum sz ~start =
  let acc = ref 0 in
  for k = 0 to sz.hops - 1 do
    acc := !acc + ((start + k) mod sz.objects)
  done;
  !acc

(* One transaction's wall stamps — at begin, after begin_txn, after the
   traversal, after the updates, after commit — with the data faults its
   traversal took and its simulated duration. *)
type stamp = {
  t0 : float;
  t1 : float;
  t2 : float;
  t3 : float;
  t4 : float;
  faults : int;
  sim_ns : int;
}

let txn sz w s prng =
  let mem = Session.mem s and st = Session.stats s in
  let start = Prng.int prng sz.objects in
  let picks = Array.init sz.updates (fun _ -> Prng.int prng sz.objects) in
  let sim0 = Span.now_ns () in
  let t0 = now () in
  Session.begin_txn s;
  let t1 = now () in
  let f0 = Stats.get st "session.data_faults" in
  let cur = ref (Session.by_oid s w.oids.(start)) and sum = ref 0 in
  for _ = 1 to sz.hops do
    let d = Session.obj_data s !cur in
    sum := !sum + Vmem.read_i64 mem (d + position_off);
    match Session.read_ref s ~data_addr:d with
    | Some next -> cur := next
    | None -> raise (Gate_failed "oo_sessions: a ring reference reads as null")
  done;
  let t2 = now () in
  let faults = Stats.get st "session.data_faults" - f0 in
  gate "oo_sessions: traversal checksum matches the ring" (!sum = ring_sum sz ~start);
  Array.iter
    (fun j ->
      let d = Session.obj_data s (Session.by_oid s w.oids.(j)) + counter_off in
      Vmem.write_i64 mem d (Vmem.read_i64 mem d + 1))
    picks;
  let t3 = now () in
  Session.commit s;
  let t4 = now () in
  { t0; t1; t2; t3; t4; faults; sim_ns = Span.now_ns () - sim0 }

(* [n] transactions, the two sessions taking turns. *)
let txns sz w prng n = Array.init n (fun k -> txn sz w w.clients.(k land 1) prng)

(* The same, timed in calibration segments of [sz.chunk] transactions;
   transaction [k] falls in segment [k / sz.chunk]. *)
let metered_txns sz w prng n =
  let m = Calib.start () in
  let stamps =
    Array.init n (fun k ->
        let st = txn sz w w.clients.(k land 1) prng in
        if (k + 1) mod sz.chunk = 0 || k = n - 1 then Calib.checkpoint m;
        st)
  in
  (stamps, m)

let setup sz ~seed =
  let w = build sz in
  ignore (txns sz w (Prng.create (seed + 1_000_003)) sz.warmup_txns);
  w

let sources w =
  let srv = Bess.Db.server w.db in
  let store = Bess.Server.store srv in
  List.concat_map (fun s -> [ Session.stats s; Vmem.stats (Session.mem s) ]) (Array.to_list w.clients)
  @ [
      Bess.Server.stats srv;
      Bess.Store.stats store;
      Bess_cache.Cache.stats (Bess.Store.cache store);
      Bess_wal.Log.stats (Bess.Store.log store);
      Bess_lock.Lock_mgr.stats (Bess.Server.locks srv);
    ]

(* After crash and recovery a fresh session walks the whole ring: every
   position is intact and the counters add up to the acknowledged
   updates. *)
let verify sz w ~acked =
  let s = Bess.Db.session ~pool_slots:sz.pool_slots w.db in
  let mem = Session.mem s in
  Session.begin_txn s;
  let cur =
    ref
      (match Session.root s "perf_ring" with
      | Some a -> a
      | None -> raise (Gate_failed "oo_sessions: the ring's root is lost after recovery"))
  in
  let positions = ref 0 and counters = ref 0 in
  for _ = 1 to sz.objects do
    let d = Session.obj_data s !cur in
    positions := !positions + Vmem.read_i64 mem (d + position_off);
    counters := !counters + Vmem.read_i64 mem (d + counter_off);
    match Session.read_ref s ~data_addr:d with
    | Some next -> cur := next
    | None -> raise (Gate_failed "oo_sessions: a ring reference reads as null after recovery")
  done;
  Session.commit s;
  gate "oo_sessions: the ring is intact after recovery"
    (!positions = sz.objects * (sz.objects - 1) / 2);
  gate "oo_sessions: acknowledged updates survive recovery" (!counters = acked)

(* A tight loop of vmem reads of one mapped object field. *)
let vmem_read_ns w n =
  let s = w.clients.(0) in
  let mem = Session.mem s in
  Session.begin_txn s;
  let d = Session.obj_data s (Session.by_oid s w.oids.(0)) + position_off in
  ignore (Vmem.read_i64 mem d);
  let ns = Probes.per_call_ns n (fun _ -> ignore (Sys.opaque_identity (Vmem.read_i64 mem d))) in
  Session.commit s;
  ns

let record_spans st =
  let root = Wtrace.record ~parent:0 "txn" st.t0 st.t4 in
  List.iter
    (fun (name, a, b) -> ignore (Wtrace.record ~parent:root name a b))
    [ ("begin", st.t0, st.t1); ("traverse", st.t1, st.t2); ("update", st.t2, st.t3);
      ("commit", st.t3, st.t4) ]

(* Calibrated session costs of the timed phase: ns per hop over
   traversals that took no data fault, the extra time per fault of those
   that did, and the update and commit steps. *)
let session_times sz (stamps, m) =
  let k = Calib.scales m in
  let cal i d = d *. k.(i / sz.chunk) in
  let traverse = Array.mapi (fun i s -> cal i (s.t2 -. s.t1)) stamps in
  let clean = List.filteri (fun i _ -> stamps.(i).faults = 0) (Array.to_list traverse) in
  let hop_ns = Pct.median (Array.of_list (List.map (fun d -> d *. 1e9 /. float_of_int sz.hops) clean)) in
  let extra = ref 0.0 and faults = ref 0 in
  Array.iteri
    (fun i s ->
      if s.faults > 0 then begin
        extra := !extra +. traverse.(i) -. (hop_ns *. 1e-9 *. float_of_int sz.hops);
        faults := !faults + s.faults
      end)
    stamps;
  [
    ("session.traverse_ns_per_hop", hop_ns);
    ("session.fault_us", if !faults = 0 then 0.0 else !extra *. 1e6 /. float_of_int !faults);
    ("session.update_us", Pct.median (Array.mapi (fun i s -> cal i (s.t3 -. s.t2) *. 1e6) stamps));
    ("session.commit_us", Pct.median (Array.mapi (fun i s -> cal i (s.t4 -. s.t3) *. 1e6) stamps));
  ]

let run sz ~seed ~seconds ~trace =
  let w, setup_s, setup_raw = setups sz.setups (fun () -> setup sz ~seed) in
  let n = Stdlib.max 1 (seconds * sz.txns_per_second) in
  let prng = Prng.create seed in
  let c0 = Counters.take (sources w) and g0 = gc_mark () and sim0 = Span.now_ns () in
  let ((stamps, m) as timed) = Wtrace.with_span "timed" (fun () -> metered_txns sz w prng n) in
  let sim_ns = Span.now_ns () - sim0 and g1 = gc_mark () in
  let d = Counters.diff ~before:c0 ~after:(Counters.take (sources w)) in
  let commits_per_s = float_of_int n /. m.Calib.total in
  let traced_txns, traced =
    if not trace then (0, [])
    else begin
      let nt = Stdlib.max 1 (n / 4) in
      let (st, mt), blame =
        with_blame (fun () -> Wtrace.with_span "traced" (fun () -> metered_txns sz w prng nt))
      in
      Array.iter record_spans st;
      ( nt,
        ("obs.trace_overhead_frac", 1.0 -. (float_of_int nt /. mt.Calib.total /. commits_per_s))
        :: blame )
    end
  in
  let srv = Bess.Db.server w.db in
  let probes =
    if not trace then []
    else begin
      let vmem = Wtrace.with_span "probe.vmem_read" (fun () -> vmem_read_ns w 2_000_000) in
      let hit =
        Wtrace.with_span "probe.read_page_hit" (fun () -> Probes.read_page_hit_ns srv 200_000)
      in
      let append = Wtrace.with_span "probe.wal_append" (fun () -> Probes.wal_append_ns 200_000) in
      let lock =
        Wtrace.with_span "probe.lock" (fun () -> Probes.lock_acquire_release_ns 200_000)
      in
      [ ("vmem.read_ns", vmem); ("store.read_page_hit_ns", hit); ("wal.append_ns", append);
        ("lock.acquire_release_ns", lock) ]
    end
  in
  (* One restart of this log takes well under a second, so the server
     crashes and restarts several times; each pass replays the same log. *)
  let outcome, recovery_s, recovery_raw =
    recoveries sz.recoveries (fun () ->
        Bess.Server.crash srv;
        Bess.Server.recover srv)
  in
  Wtrace.with_span "verify" (fun () ->
      verify sz w ~acked:(sz.updates * (sz.warmup_txns + n + traced_txns)));
  let raw_us = Array.map (fun s -> (s.t4 -. s.t0) *. 1e6) stamps in
  let latency_us = Calib.apply m ~seg:(fun k -> k / sz.chunk) raw_us in
  let sim_ms = Array.map (fun s -> float_of_int s.sim_ns /. 1e6) stamps in
  let q, p99 = Pct.tail latency_us in
  {
    attempted = n;
    failed = 0;
    e2e =
      [
        ("setup_s", setup_s);
        ("commits_per_s", commits_per_s);
        ("txn_p50_us", Pct.median latency_us);
        ("txn_p99_us", p99);
        ("sim_commits_per_s", float_of_int n *. 1e9 /. float_of_int sim_ns);
        (* A transaction's simulated time is a sum of a few fixed costs
           (the 100 us force, 3 us per trap), so its percentiles are read
           on that lattice. *)
        ("sim_commit_p50_ms", Pct.grouped sim_ms 50.0);
        ("sim_commit_p99_ms", Pct.grouped sim_ms q);
        ("recovery_s", recovery_s);
        ("write_amp", Counters.write_amp d);
        ("heap_peak_mb", heap_peak_mb ());
      ];
    layer =
      (if not trace then []
       else
         Counters.layer_metrics d ~commits:n ~attempts:n
         @ gc_metrics ~before:g0 ~after:g1 ~commits:n
         @ session_times sz timed @ traced @ probes
         @ recovery_metrics ~redone:outcome.Bess_wal.Recovery.redone ~recovery_s);
    raw =
      [
        ("setup_s", setup_raw);
        ("commits_per_s", float_of_int n /. m.Calib.raw);
        ("txn_p50_us", Pct.median raw_us);
        ("txn_p99_us", snd (Pct.tail raw_us));
        ("recovery_s", recovery_raw);
      ];
    notes =
      [ Printf.sprintf "%d transactions, all committed; the p99 metrics are p%g" n q ];
  }
