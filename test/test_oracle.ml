(* Refactoring oracle: a small Driver.run and two small Fleet.runs
   (clean, and under the chaos-2pc fault profile) whose full result
   records, scheduler counters and fleet fingerprints are pinned to
   literals. A change that is meant to leave the schedule alone
   (turning a knob into a constant, merging two copies of a loop) must
   keep every literal; a change that moves behaviour on purpose
   re-records them and says so.

   Both configs use [think_ns = 0] and [zipf_theta = 0.0], so no draw
   goes through libm's [log] or [pow]: the literals hold on any OCaml
   version and platform.

   Each run is pinned twice: bare, and with every observability plane
   installed around it. Observing must not move the schedule, so both
   check the same literals. *)

module Sched = Bess_sched.Sched
module Driver = Bess_sched.Driver
module Fleet = Bess_shard.Fleet
module Shard = Bess_shard.Shard
module Stats = Bess_util.Stats

let pp_driver (r : Driver.result) =
  Printf.sprintf
    "commits=%d aborts=%d give_ups=%d indeterminate=%d disconnects=%d reconnects=%d \
     events=%d sim_ns=%d p50=%d p99=%d"
    r.r_commits r.r_aborts r.r_give_ups r.r_indeterminate r.r_disconnects r.r_reconnects
    r.r_events r.r_sim_ns r.r_commit_p50_ns r.r_commit_p99_ns

let pp_fleet (r : Fleet.result) =
  Printf.sprintf
    "commits=%d cross=%d aborts=%d give_ups=%d indeterminate=%d events=%d sim_ns=%d fp=%s"
    r.f_commits r.f_cross_commits r.f_aborts r.f_give_ups r.f_indeterminate r.f_events
    r.f_sim_ns r.f_fingerprint

let counters = Alcotest.(list (pair string int))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Run [f] with, when [planes], every observability plane installed: a
   span collector, the critical-path sink, a 1 ms series watched by an
   SLO, and the flight recorder armed (dumping into a scratch directory
   on crash and recovery). *)
let observed planes f =
  if not planes then f ()
  else begin
    let dir = Filename.concat (Filename.get_temp_dir_name ()) "bess_oracle_flightrec" in
    rm_rf dir;
    Bess_obs.Flightrec.arm ~dir ();
    Fun.protect
      ~finally:(fun () ->
        Bess_obs.Flightrec.disarm ();
        rm_rf dir)
      (fun () ->
        let slo =
          match Bess_obs.Slo.rule_of_string "commit_p99: critpath.commit_ns.p99 < 1000000" with
          | Ok rule -> Bess_obs.Slo.create ~rules:[ rule ] ()
          | Error e -> Alcotest.fail e
        in
        let r =
          Bess_sched.Planes.with_installed ~spans:(Bess_obs.Span.create ())
            ~critpath:(Bess_obs.Critpath.create ())
            ~series:(Bess_obs.Series.create ~window_ns:1_000_000 ())
            ~slo f
        in
        Alcotest.(check bool) "the SLO watched commit windows" true
          (Bess_obs.Slo.checks slo > 0);
        r)
  end

let test_driver_pinned planes () =
  Bess_obs.Registry.with_fresh @@ fun () ->
  let db = Bess.Db.create_memory ~db_id:9400 () in
  let server = Bess.Db.server db in
  Bess.Server.set_detection server `Timeout;
  let pages = Driver.seed_working_set db ~n_pages:32 in
  let sched = Sched.create () in
  let r =
    observed planes @@ fun () ->
    Driver.run ~sched server ~pages
      { Driver.default with
        n_clients = 40;
        txns_per_client = 15;
        hot_fraction = 0.2;
        hot_pages = 4;
        think_ns = 0;
        churn = 0.05;
        reconnect_ns = 100_000;
        seed = 99;
      }
  in
  Alcotest.(check string) "driver result"
    "commits=573 aborts=0 give_ups=0 indeterminate=0 disconnects=67 reconnects=67 \
     events=2341 sim_ns=57555000 p50=715196 p99=2097151"
    (pp_driver r);
  Alcotest.check counters "driver sched counters"
    [ ("sched.churn_holding_locks", 27); ("sched.commits", 573); ("sched.disconnects", 67);
      ("sched.events", 2341); ("sched.heap_peak", 255); ("sched.late_events", 1401);
      ("sched.lock_parks", 244); ("sched.lock_wakeups", 244); ("sched.reconnects", 67);
      ("sched.scheduled", 2341) ]
    (Stats.to_list (Sched.stats sched))

(* One fleet run per fault profile: clean, and "chaos-2pc", whose drops,
   duplicates and coordinator crashes drive the shard plane's retry loop
   and the fleet's blocked-attempt backoff. *)
let run_fleet ~planes profile =
  Bess_obs.Registry.with_fresh @@ fun () ->
  let sh = Shard.create ~n:3 () in
  let sched = Sched.create () in
  let cfg =
    { Fleet.default with cross_fraction = 0.25; zipf_theta = 0.0; think_ns = 0; seed = 7 }
  in
  let r =
    observed planes @@ fun () ->
    Bess_sched.Planes.with_installed
      ~faults:(7, List.assoc profile Bess_fault.Fault.profiles)
      (fun () -> Fleet.run ~sched sh cfg)
  in
  ( pp_fleet r,
    Stats.get (Bess_net.Net.stats (Shard.net sh)) "net.client_retries",
    Stats.to_list (Sched.stats sched) )

let test_fleet_pinned planes () =
  let r, retries, c = run_fleet ~planes "off" in
  Alcotest.(check string) "fleet result"
    "commits=200 cross=39 aborts=0 give_ups=0 indeterminate=0 events=200 sim_ns=363981360 \
     fp=c200/x39/a0/g0/i0|img:336a64a4"
    r;
  Alcotest.(check int) "fleet client retries" 0 retries;
  Alcotest.check counters "fleet sched counters"
    [ ("sched.commits", 200); ("sched.events", 200); ("sched.heap_peak", 8);
      ("sched.late_events", 199); ("sched.scheduled", 200) ]
    c

let test_fleet_chaos_pinned planes () =
  let r, retries, c = run_fleet ~planes "chaos-2pc" in
  Alcotest.(check string) "fleet result"
    "commits=190 cross=37 aborts=0 give_ups=0 indeterminate=10 events=200 sim_ns=448277840 \
     fp=c190/x37/a0/g0/i10|img:336a64a4"
    r;
  Alcotest.(check int) "fleet client retries" 77 retries;
  Alcotest.check counters "fleet sched counters"
    [ ("sched.commits", 190); ("sched.events", 200); ("sched.heap_peak", 8);
      ("sched.indeterminate", 10); ("sched.late_events", 199); ("sched.scheduled", 200) ]
    c

let suite =
  [
    Alcotest.test_case "driver_schedule_pinned" `Quick (test_driver_pinned false);
    Alcotest.test_case "fleet_schedule_pinned" `Quick (test_fleet_pinned false);
    Alcotest.test_case "fleet_chaos_schedule_pinned" `Quick (test_fleet_chaos_pinned false);
    Alcotest.test_case "driver_schedule_pinned_observed" `Quick (test_driver_pinned true);
    Alcotest.test_case "fleet_schedule_pinned_observed" `Quick (test_fleet_pinned true);
    Alcotest.test_case "fleet_chaos_schedule_pinned_observed" `Quick
      (test_fleet_chaos_pinned true);
  ]
