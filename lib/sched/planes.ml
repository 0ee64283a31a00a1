(* Each plane is one process-wide slot, so a workload that installs its
   own must put back what it found, on exceptions too: a harness running
   several workloads under one trace collector or one fault profile
   loses them otherwise. *)

module Span = Bess_obs.Span
module Critpath = Bess_obs.Critpath
module Series = Bess_obs.Series
module Fault = Bess_fault.Fault

let with_installed ?spans ?critpath ?series ?faults f =
  let saved_faults = Option.map (fun _ -> Fault.save ()) faults in
  Option.iter
    (fun (seed, sites) ->
      Fault.seed seed;
      Fault.apply_profile sites)
    faults;
  let saved_spans = Span.save () in
  let saved_critpath = Critpath.installed () in
  let saved_series = Series.installed () in
  Option.iter (fun c -> Span.install (Some c)) spans;
  Option.iter (fun c -> Critpath.install (Some c)) critpath;
  Option.iter (fun s -> Series.install (Some s)) series;
  Fun.protect f ~finally:(fun () ->
      Option.iter
        (fun s ->
          Series.flush s;
          Series.install saved_series)
        series;
      if critpath <> None then Critpath.install saved_critpath;
      if spans <> None then Span.restore saved_spans;
      Option.iter Fault.restore saved_faults)
