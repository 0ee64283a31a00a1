(* The benchmark's own tests: the percentile helper, the calibrated
   clock, metric-name validity and agreement with BENCHMARK.json, and a
   reduced-size run of every workload through its correctness gates and
   traced path, checking that each workload exercises the layers it was
   chosen for and bypasses the others. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let percentiles () =
  check "p99 needs a thousand samples" (Pct.supported 1000 = Some 99.0);
  check "the tail is capped at p99" (Pct.supported 5000 = Some 99.0);
  check "a hundred samples support p90" (Pct.supported 100 = Some 90.0);
  check "ten samples support no percentile" (Pct.supported 10 = None);
  check "median" (close (Pct.median (Array.init 101 float_of_int)) 50.0);
  check "interpolates between ranks" (close (Pct.percentile [| 10.0; 0.0 |] 25.0) 2.5);
  let q, v = Pct.tail (Array.init 100 float_of_int) in
  check "the tail of a hundred samples is their p90" (q = 90.0 && close v 89.1);
  let q, v = Pct.tail [| 3.0; 1.0 |] in
  check "a tiny sample reports its maximum" (q = 100.0 && v = 3.0);
  check "grouped: one value" (close (Pct.grouped [| 118.0; 118.0; 118.0 |] 50.0) 118.0);
  check "grouped: median between two equal classes"
    (close (Pct.grouped [| 118.0; 118.0; 121.0; 121.0 |] 50.0) 119.5);
  (* The class of 121 spans 119.5 .. 122.5 and holds 3 of 4 samples, one
     below it: the median sits a third of the way in. *)
  check "grouped: the class shares move the median"
    (close (Pct.grouped [| 118.0; 121.0; 121.0; 121.0 |] 50.0) 120.5
     && close (Pct.grouped [| 118.0; 118.0; 118.0; 121.0 |] 50.0) 118.5)

let calibration () =
  let s = Calib.scale () in
  check "the CPU's speed is a positive number" (Float.is_finite s && s > 0.0);
  let r, cal, raw = Calib.timed (fun () -> 42) in
  check "timed returns its result and two times" (r = 42 && cal >= 0.0 && raw >= 0.0);
  let m = Calib.start () in
  Calib.checkpoint m;
  Calib.checkpoint m;
  check "a meter counts its segments" (m.Calib.closed = 2 && Array.length (Calib.scales m) = 2);
  check "a segment bills its wall time at its scale"
    (m.Calib.raw >= 0.0 && m.Calib.total >= 0.0 && Array.for_all (fun k -> k > 0.0) (Calib.scales m));
  let m = { m with Calib.scales = [ 2.0; 0.5 ] } in
  check "samples take their own segment's scale, in checkpoint order"
    (Calib.apply m ~seg:(fun i -> i / 2) [| 1.0; 3.0; 1.0; 3.0 |] = [| 0.5; 1.5; 2.0; 6.0 |])

let names () =
  let all = Metrics.end_to_end @ Metrics.per_layer in
  List.iter
    (fun (s : Metrics.spec) ->
      check ("valid name " ^ s.name) (Metrics.valid_name s.name);
      check ("valid unit of " ^ s.name) (Metrics.valid_unit s.unit))
    all;
  let ns = List.map (fun (s : Metrics.spec) -> s.name) all in
  check "names are unique" (List.length (List.sort_uniq compare ns) = List.length ns);
  List.iter
    (fun bad -> check ("rejects " ^ String.escaped bad) (not (Metrics.valid_name bad)))
    [ ""; "_lead"; "has space"; "a/b"; "q\"uote"; String.make 65 'a' ];
  check "accepts a component starting with a digit" (Metrics.valid_name "blame.2pc_frac")

(* BENCHMARK.json names the same workloads, metrics and units. *)
let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let j = Bess_obs.Json.parse_exn (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let field key f = List.map (fun m -> Bess_obs.Json.get_string m f) (Bess_obs.Json.get_list j key) in
  let names specs = List.map (fun (s : Metrics.spec) -> s.name) specs in
  let units specs = List.map (fun (s : Metrics.spec) -> s.unit) specs in
  check "workloads" (field "workloads" "name" = Workload.names);
  check "end_to_end names" (field "end_to_end" "name" = names Metrics.end_to_end);
  check "end_to_end units" (field "end_to_end" "unit" = units Metrics.end_to_end);
  check "per_layer names" (field "per_layer" "name" = names Metrics.per_layer);
  check "per_layer units" (field "per_layer" "unit" = units Metrics.per_layer)

let smoke () =
  List.iter
    (fun name ->
      let r = Workload.run ~name ~smoke:true ~seed:11 ~seconds:1 ~trace:true in
      let used k = Metrics.value r.Common.layer k > 0.0 in
      let only w = name = w in
      check (name ^ ": attempts") (r.Common.attempted > 0);
      check (name ^ ": every end-to-end metric")
        (Metrics.missing Metrics.end_to_end r.Common.e2e = []);
      check (name ^ ": end-to-end metrics are positive")
        (List.for_all (fun (_, v) -> Float.is_finite v && v > 0.0) r.Common.e2e);
      check (name ^ ": per-layer names are declared")
        (Metrics.unknown Metrics.per_layer r.Common.layer = []);
      check (name ^ ": vmem only on oo_sessions") (used "vmem.faults_per_txn" = only "oo_sessions");
      check (name ^ ": sessions only on oo_sessions")
        (used "session.swizzles_per_txn" = only "oo_sessions");
      check (name ^ ": the scheduler only on the fleets")
        (used "sched.events_per_commit" = not (only "oo_sessions"));
      if only "fleet_spill" then begin
        check "fleet_spill: lock waits" (used "lock.blocks_per_commit");
        check "fleet_spill: evictions" (used "cache.evictions_per_commit")
      end;
      check (name ^ ": the network only on shard_2pc")
        (used "net.messages_per_commit" = only "shard_2pc");
      check (name ^ ": 2PC only on shard_2pc")
        (used "twopc.decisions_logged_per_commit" = only "shard_2pc");
      check (name ^ ": the log everywhere") (used "wal.forces_per_commit");
      check (name ^ ": blame everywhere") (used "blame.wal_frac"))
    Workload.names

let () =
  percentiles ();
  calibration ();
  names ();
  benchmark_json ();
  smoke ();
  if !failures > 0 then exit 1
