(* shard_2pc: closed-loop clients over a ring of shards, a quarter of
   the transactions crossing two shards under presumed-abort 2PC, page
   ranks zipf(0.8). Every operation crosses the simulated network (about
   ten messages a commit); the coordinator's decision log, Twopc, Rpc and
   Remote.serve do the work. vmem and sessions do none, and each shard's
   cache holds its pages. *)

open Common
module Fleet = Bess_shard.Fleet
module Shard = Bess_shard.Shard
module Twopc = Bess_shard.Twopc
module Sched = Bess_sched.Sched
module Stats = Bess_util.Stats

type sizes = {
  shards : int;
  pages_per_shard : int;
  clients : int;
  setups : int;
  warmup_per_client : int;
  attempts_per_second : int;  (** timed attempts per second of --seconds *)
  window_ns : int;  (** simulated time per wall-clock sample *)
  per_segment : int;  (** samples per calibration segment *)
  recoveries : int;  (** crash-and-restart passes; recovery_s is their median *)
  probe_txns : int;
}

let full =
  { shards = 4; pages_per_shard = 1024; clients = 64; setups = 3; warmup_per_client = 350;
    attempts_per_second = 33_000; window_ns = 200_000_000; per_segment = 24; recoveries = 3;
    probe_txns = 200 }

let smoke =
  { shards = 4; pages_per_shard = 64; clients = 8; setups = 1; warmup_per_client = 4;
    attempts_per_second = 80; window_ns = 20_000_000; per_segment = 4; recoveries = 1;
    probe_txns = 10 }

(* A blocked attempt retries the same writes after a backoff; the budget
   is far above what contention at this population needs. *)
let config sz ~seed ~per_client =
  { Fleet.default with
    n_clients = sz.clients;
    txns_per_client = per_client;
    cross_fraction = 0.25;
    zipf_theta = 0.8;
    max_retries = 1_000;
    seed }

let failures (r : Fleet.result) = r.Fleet.f_aborts + r.Fleet.f_give_ups + r.Fleet.f_indeterminate

let fleet sh sched cfg =
  let r = Fleet.run ~sched sh cfg in
  gate "shard_2pc: every attempt has exactly one outcome"
    (r.Fleet.f_commits + failures r = cfg.Fleet.n_clients * cfg.Fleet.txns_per_client);
  r

(* Re-drive unacked decisions and resolve anything prepared by query;
   then no lock may be held and nothing may be in doubt. *)
let quiesce sh =
  ignore (Twopc.redrive (Shard.coord sh));
  ignore (Shard.resolve_in_doubt sh);
  gate "shard_2pc: no lock held after quiesce" (Shard.locks_held sh = 0);
  gate "shard_2pc: nothing in doubt after quiesce" (Shard.in_doubt sh = 0)

let setup sz ~seed =
  let sh = Shard.create ~n:sz.shards ~pages_per_shard:sz.pages_per_shard () in
  ignore
    (fleet sh (Sched.create ()) (config sz ~seed:(seed + 1_000_003) ~per_client:sz.warmup_per_client));
  quiesce sh;
  sh

let shard_ids sh = List.init (Shard.n_shards sh) Fun.id

let sources sh sched =
  let coord = Shard.coord sh in
  List.concat_map
    (fun i ->
      let srv = Shard.server sh i in
      let store = Bess.Server.store srv in
      [
        Bess.Server.stats srv;
        Bess.Store.stats store;
        Bess_cache.Cache.stats (Bess.Store.cache store);
        Bess_wal.Log.stats (Bess.Store.log store);
        Bess_lock.Lock_mgr.stats (Bess.Server.locks srv);
      ])
    (shard_ids sh)
  @ [ Twopc.stats coord; Bess_wal.Log.stats (Twopc.log coord); Bess_net.Net.stats (Shard.net sh);
      Sched.stats sched ]

(* Crash every shard and the coordinator, then restart the ring: ARIES
   on each shard, decision-log recovery and re-drive on the coordinator,
   in-doubt resolution by query. Returns the records redone. *)
let crash_and_recover sh =
  List.iter (Shard.crash_shard sh) (shard_ids sh);
  Twopc.crash (Shard.coord sh);
  let redone =
    List.fold_left
      (fun acc i -> acc + (Shard.recover_shard sh i).Bess_wal.Recovery.redone)
      0 (shard_ids sh)
  in
  ignore (Twopc.recover (Shard.coord sh));
  ignore (Shard.resolve_in_doubt sh);
  redone

(* Shard.txn called directly, one after another, with a fixed one-shard
   or two-shard write set. *)
let direct_txn_us sh ~cross n =
  let value = Bytes.make 8 'p' and ranks = Shard.pages_per_shard sh in
  Probes.per_call_ns n (fun k ->
      let rank = k mod ranks in
      let writes = (0, rank, 0, value) :: (if cross then [ (1, rank, 0, value) ] else []) in
      match Shard.txn sh ~client:90_000 ~writes () with
      | `Committed -> ()
      | `Aborted | `Blocked ->
          raise (Gate_failed "shard_2pc: an uncontended direct transaction did not commit"))
  /. 1e3

let run sz ~seed ~seconds ~trace =
  let sh, setup_s, setup_raw = setups sz.setups (fun () -> setup sz ~seed) in
  let per_client = Stdlib.max 1 (seconds * sz.attempts_per_second / sz.clients) in
  let cfg = config sz ~seed ~per_client in
  let attempts = sz.clients * per_client in
  let sched = Sched.create () in
  let sched_commits () = Stats.get (Sched.stats sched) "sched.commits" in
  let c0 = Counters.take (sources sh sched) and g0 = gc_mark () in
  let m = Calib.start () in
  let r, win =
    Wtrace.with_span "fleet.timed" (fun () ->
        with_windows ~window_ns:sz.window_ns ~per_segment:sz.per_segment ~commits:sched_commits m
          (fun () -> fleet sh sched cfg))
  in
  let wall = m.Calib.total in
  let g1 = gc_mark () in
  let d = Counters.diff ~before:c0 ~after:(Counters.take (sources sh sched)) in
  quiesce sh;
  let commits = r.Fleet.f_commits in
  let commits_per_s = float_of_int commits /. wall in
  (* Little's law per window: clients = throughput × (latency + think). *)
  let sim_latency_ms =
    Array.map
      (fun ns_per_commit ->
        ((float_of_int sz.clients *. ns_per_commit) -. float_of_int cfg.Fleet.think_ns) /. 1e6)
      win.sim_ns
  in
  let traced =
    if not trace then []
    else begin
      let (rt, wall_t, _), blame =
        with_blame (fun () ->
            Wtrace.with_span "fleet.traced" (fun () ->
                Calib.timed (fun () ->
                    fleet sh (Sched.create ())
                      (config sz ~seed:(seed + 2_000_003)
                         ~per_client:(Stdlib.max 1 (per_client / 4))))))
      in
      quiesce sh;
      ("obs.trace_overhead_frac", 1.0 -. (float_of_int rt.Fleet.f_commits /. wall_t /. commits_per_s))
      :: blame
    end
  in
  let probes =
    if not trace then []
    else begin
      let srv = Shard.server sh 0 in
      let hit =
        Wtrace.with_span "probe.read_page_hit" (fun () -> Probes.read_page_hit_ns srv 200_000)
      in
      let miss =
        Wtrace.with_span "probe.read_page_miss" (fun () ->
            Probes.read_page_miss_ns srv ~pages:(Shard.pages sh 0) 2_000)
      in
      let append = Wtrace.with_span "probe.wal_append" (fun () -> Probes.wal_append_ns 200_000) in
      let lock =
        Wtrace.with_span "probe.lock" (fun () -> Probes.lock_acquire_release_ns 200_000)
      in
      let call = Wtrace.with_span "probe.net_call" (fun () -> Probes.net_call_ns 200_000) in
      [ ("sched.wall_ns_per_event", wall *. 1e9 /. float_of_int r.Fleet.f_events);
        ("store.read_page_hit_ns", hit); ("store.read_page_miss_ns", miss);
        ("wal.append_ns", append); ("lock.acquire_release_ns", lock); ("net.call_ns", call) ]
    end
  in
  let crc, crc_s, _ = Wtrace.with_span "crc" (fun () -> Calib.timed (fun () -> Shard.images_crc sh)) in
  let redone, recovery_s, recovery_raw = recoveries sz.recoveries (fun () -> crash_and_recover sh) in
  gate "shard_2pc: page images survive full-ring recovery" (Shard.images_crc sh = crc);
  gate "shard_2pc: no lock held after recovery" (Shard.locks_held sh = 0);
  gate "shard_2pc: nothing in doubt after recovery" (Shard.in_doubt sh = 0);
  let direct =
    if not trace then []
    else begin
      let local =
        Wtrace.with_span "probe.shard_txn_local" (fun () ->
            direct_txn_us sh ~cross:false sz.probe_txns)
      in
      let cross =
        Wtrace.with_span "probe.shard_txn_cross" (fun () ->
            direct_txn_us sh ~cross:true sz.probe_txns)
      in
      [ ("shard.txn_local_us", local); ("shard.txn_cross_us", cross);
        ("shard.fingerprint_crc_s", crc_s) ]
    end
  in
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
        ("sim_commits_per_s", Fleet.throughput r);
        ("sim_commit_p50_ms", Pct.median sim_latency_ms);
        ("sim_commit_p99_ms", snd (Pct.tail sim_latency_ms));
        ("recovery_s", recovery_s);
        ("write_amp", Counters.write_amp d);
        ("heap_peak_mb", heap_peak_mb ());
      ];
    layer =
      (if not trace then []
       else
         Counters.layer_metrics d ~commits ~attempts
         @ gc_metrics ~before:g0 ~after:g1 ~commits
         @ [ ("twopc.cross_commit_frac", ratio r.Fleet.f_cross_commits commits) ]
         @ traced @ probes @ direct
         @ recovery_metrics ~redone ~recovery_s);
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
        Printf.sprintf "%d attempts: %d commits (%d cross-shard), %d aborts, %d give-ups, %d indeterminate"
          attempts commits r.Fleet.f_cross_commits r.Fleet.f_aborts r.Fleet.f_give_ups
          r.Fleet.f_indeterminate;
        Printf.sprintf
          "txn_*_us and sim_commit_*_ms: window throughput over %d windows of %d simulated ns \
           (tail p%g), not per-transaction latency"
          (Array.length win.wall_us) sz.window_ns q;
      ];
  }
