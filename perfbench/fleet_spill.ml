(* fleet_spill: closed-loop clients on the event scheduler, each
   transaction one page update, against a working set four times the
   server cache: zipf(0.8) plus 5% of picks on the 8 hottest pages, a log
   force per 16 commits, timeout deadlock detection, no churn. The
   scheduler heap, lock handoff under contention, group commit and dirty
   eviction do the work; vmem and sessions do none. It uses the store
   and the log the opposite way to oo_sessions: write-only, and spilling
   out of the cache. *)

open Common
module Driver = Bess_sched.Driver
module Sched = Bess_sched.Sched
module Stats = Bess_util.Stats
module Lock_mgr = Bess_lock.Lock_mgr

type sizes = {
  clients : int;
  ws_pages : int;  (** working-set pages *)
  cache_slots : int;
  setups : int;
  warmup_per_client : int;
  attempts_per_second : int;  (** timed attempts per second of --seconds *)
  window_ns : int;  (** simulated time per wall-clock sample *)
  per_segment : int;  (** samples per calibration segment *)
  recoveries : int;  (** crash-and-restart passes; recovery_s is their median *)
}

let full =
  { clients = 100; ws_pages = 16_384; cache_slots = 4096; setups = 3; warmup_per_client = 300;
    attempts_per_second = 42_000; window_ns = 1_000_000; per_segment = 20;
    recoveries = 3 }

let smoke =
  { clients = 64; ws_pages = 1024; cache_slots = 256; setups = 1; warmup_per_client = 2;
    attempts_per_second = 640; window_ns = 200_000; per_segment = 4;
    recoveries = 1 }

let db_id = 42

let config sz ~seed ~per_client =
  { Driver.default with
    n_clients = sz.clients;
    txns_per_client = per_client;
    zipf_theta = 0.8;
    hot_fraction = 0.05;
    hot_pages = 8;
    seed }

type world = { server : Bess.Server.t; pages : Bess_cache.Page_id.t array }

(* Committed data pages in popularity order, created through a
   throwaway session that then drops its cached copies, so no client
   write ever calls it back. *)
let working_set db n_pages =
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let pages = ref [] in
  let remaining = ref n_pages in
  while !remaining > 0 do
    let n = Stdlib.min 128 !remaining in
    let d =
      (Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:n ()).Bess.Session.data_disk
    in
    for i = 0 to n - 1 do
      pages :=
        { Bess_cache.Page_id.area = d.Bess_storage.Seg_addr.area;
          page = d.Bess_storage.Seg_addr.first_page + i }
        :: !pages
    done;
    remaining := !remaining - n
  done;
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  Array.of_list (List.rev !pages)

let failures (r : Driver.result) = r.Driver.r_aborts + r.Driver.r_give_ups + r.Driver.r_indeterminate

(* One driver call: every attempt ends in exactly one outcome, and no
   lock outlives the fleet. *)
let drive w sched cfg =
  let r = Driver.run ~sched w.server ~pages:w.pages cfg in
  gate "fleet_spill: every attempt has exactly one outcome"
    (r.Driver.r_commits + failures r = cfg.Driver.n_clients * cfg.Driver.txns_per_client);
  gate "fleet_spill: no lock outlives the fleet"
    (Lock_mgr.n_locks (Bess.Server.locks w.server) = 0);
  r

let setup sz ~seed =
  let db = Bess.Db.create_memory ~cache_slots:sz.cache_slots ~db_id () in
  let server = Bess.Db.server db in
  Bess.Server.set_group_policy server (Bess_wal.Group_commit.Group_n 16);
  (* The exact waits-for detector scans the whole lock table per blocked
     request; at fleet scale deadlocks are found by timeout. *)
  Bess.Server.set_detection server `Timeout;
  let w = { server; pages = working_set db sz.ws_pages } in
  ignore
    (drive w (Sched.create ())
       (config sz ~seed:(seed + 1_000_003) ~per_client:sz.warmup_per_client));
  w

(* CRC of every working-set page as Server.read_page returns it. *)
let image_crc w =
  Array.fold_left
    (fun crc p ->
      let b = Bess.Server.read_page w.server p in
      Bess_util.Crc32.update crc b 0 (Bytes.length b))
    0l w.pages

let sources w sched =
  let store = Bess.Server.store w.server in
  [
    Bess.Server.stats w.server;
    Bess.Store.stats store;
    Bess_cache.Cache.stats (Bess.Store.cache store);
    Bess_wal.Log.stats (Bess.Store.log store);
    Lock_mgr.stats (Bess.Server.locks w.server);
    Sched.stats sched;
  ]

let run sz ~seed ~seconds ~trace =
  let w, setup_s, setup_raw = setups sz.setups (fun () -> setup sz ~seed) in
  let per_client = Stdlib.max 1 (seconds * sz.attempts_per_second / sz.clients) in
  let cfg = config sz ~seed ~per_client in
  let attempts = sz.clients * per_client in
  let sched = Sched.create () in
  let sched_commits () = Stats.get (Sched.stats sched) "sched.commits" in
  let c0 = Counters.take (sources w sched) and g0 = gc_mark () in
  let m = Calib.start () in
  let r, win =
    Wtrace.with_span "fleet.timed" (fun () ->
        with_windows ~window_ns:sz.window_ns ~per_segment:sz.per_segment ~commits:sched_commits m
          (fun () -> drive w sched cfg))
  in
  let wall = m.Calib.total in
  let g1 = gc_mark () in
  let d = Counters.diff ~before:c0 ~after:(Counters.take (sources w sched)) in
  let commits = r.Driver.r_commits in
  let commits_per_s = float_of_int commits /. wall in
  let traced =
    if not trace then []
    else begin
      let (rt, wall_t, _), blame =
        with_blame (fun () ->
            Wtrace.with_span "fleet.traced" (fun () ->
                Calib.timed (fun () ->
                    drive w (Sched.create ())
                      (config sz ~seed:(seed + 2_000_003)
                         ~per_client:(Stdlib.max 1 (per_client / 4))))))
      in
      ("obs.trace_overhead_frac", 1.0 -. (float_of_int rt.Driver.r_commits /. wall_t /. commits_per_s))
      :: blame
    end
  in
  let probes =
    if not trace then []
    else begin
      let hit =
        Wtrace.with_span "probe.read_page_hit" (fun () -> Probes.read_page_hit_ns w.server 200_000)
      in
      let miss =
        Wtrace.with_span "probe.read_page_miss" (fun () ->
            Probes.read_page_miss_ns w.server ~pages:w.pages 2_000)
      in
      let append = Wtrace.with_span "probe.wal_append" (fun () -> Probes.wal_append_ns 200_000) in
      let lock =
        Wtrace.with_span "probe.lock" (fun () -> Probes.lock_acquire_release_ns 200_000)
      in
      [ ("sched.wall_ns_per_event", wall *. 1e9 /. float_of_int r.Driver.r_events);
        ("store.read_page_hit_ns", hit); ("store.read_page_miss_ns", miss);
        ("wal.append_ns", append); ("lock.acquire_release_ns", lock) ]
    end
  in
  let crc = Wtrace.with_span "crc" (fun () -> image_crc w) in
  let outcome, recovery_s, recovery_raw =
    recoveries sz.recoveries (fun () ->
        Bess.Server.crash w.server;
        Bess.Server.recover w.server)
  in
  gate "fleet_spill: page images survive crash and recovery" (Int32.equal crc (image_crc w));
  gate "fleet_spill: no lock survives recovery" (Lock_mgr.n_locks (Bess.Server.locks w.server) = 0);
  let q, p99 = Pct.tail win.wall_us and raw_us = win.raw_us in
  {
    attempted = attempts;
    failed = failures r;
    e2e =
      [
        ("setup_s", setup_s);
        ("commits_per_s", commits_per_s);
        ("txn_p50_us", Pct.median win.wall_us);
        ("txn_p99_us", p99);
        ("sim_commits_per_s", Driver.throughput r);
        ("sim_commit_p50_ms", float_of_int r.Driver.r_commit_p50_ns /. 1e6);
        ("sim_commit_p99_ms", float_of_int r.Driver.r_commit_p99_ns /. 1e6);
        ("recovery_s", recovery_s);
        ("write_amp", Counters.write_amp d);
        ("heap_peak_mb", heap_peak_mb ());
      ];
    layer =
      (if not trace then []
       else
         Counters.layer_metrics d ~commits ~attempts
         @ gc_metrics ~before:g0 ~after:g1 ~commits
         @ traced @ probes
         @ recovery_metrics ~redone:outcome.Bess_wal.Recovery.redone ~recovery_s);
    raw =
      [
        ("setup_s", setup_raw);
        ("commits_per_s", float_of_int commits /. m.Calib.raw);
        ("txn_p50_us", Pct.median raw_us);
        ("txn_p99_us", snd (Pct.tail raw_us));
        ("recovery_s", recovery_raw);
      ];
    notes =
      [
        Printf.sprintf "%d attempts: %d commits, %d aborts, %d give-ups, %d indeterminate" attempts
          commits r.Driver.r_aborts r.Driver.r_give_ups r.Driver.r_indeterminate;
        Printf.sprintf
          "txn_*_us: window throughput, wall us per commit over %d windows of %d simulated ns \
           (tail p%g), not per-transaction latency"
          (Array.length win.wall_us) sz.window_ns q;
      ];
  }
