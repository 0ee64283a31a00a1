(* Plumbing shared by the workloads: correctness gates, repeated set-ups
   and restarts, the OCaml runtime's own counters, simulated-time windows
   for the fleets' wall-clock tails, and critical-path blame. Wall times
   are calibrated (Calib). *)

module Span = Bess_obs.Span
module Critpath = Bess_obs.Critpath

exception Gate_failed of string

(* A gate that fails ends the run before any number is printed. *)
let gate name ok = if not ok then raise (Gate_failed name)

let now = Unix.gettimeofday
let ratio a b = if b <= 0 then 0.0 else float_of_int a /. float_of_int b

(* What one run of a workload measured. [e2e] holds every end-to-end
   metric; [layer] the per-layer metrics of a traced run (empty
   otherwise), where a layer the workload bypasses is simply absent;
   [raw] the uncalibrated wall-clock values of the timed end-to-end
   metrics, printed for reference only. *)
type report = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layer : (string * float) list;
  raw : (string * float) list;
  notes : string list;
}

(* Set-up and restart are single long passes, bound by memory traffic
   and the major GC more than the transaction path is: across processes
   their time moved about half as much as the reference loop's (README.md,
   calibration), so they take the square root of its scale. *)
let pass_elasticity = 0.5

(* Build the working set [n] times, each from a collected heap so
   discarded builds do not pile up; the last build and the medians of the
   calibrated and raw wall times. *)
let setups n build =
  let last = ref None in
  let times =
    Array.init n (fun _ ->
        last := None;
        Gc.full_major ();
        let w, cal, raw =
          Wtrace.with_span "setup" (fun () -> Calib.timed ~elasticity:pass_elasticity build)
        in
        last := Some w;
        (cal, raw))
  in
  (Option.get !last, Pct.median (Array.map fst times), Pct.median (Array.map snd times))

(* ---- The OCaml runtime beneath every layer ---- *)

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_metrics ~before ~after ~commits =
  [
    ( "gc.minor_words_per_commit",
      if commits <= 0 then 0.0
      else (after.minor_words -. before.minor_words) /. float_of_int commits );
    ("gc.major_collections", float_of_int (after.major_collections - before.major_collections));
  ]

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Crash and restart [n] times; the first pass's outcome and the medians
   of the calibrated and raw wall times. *)
let recoveries n restart =
  let first = ref None in
  let times =
    Array.init n (fun _ ->
        let outcome, cal, raw =
          Wtrace.with_span "recover" (fun () -> Calib.timed ~elasticity:pass_elasticity restart)
        in
        if !first = None then first := Some outcome;
        (cal, raw))
  in
  (Option.get !first, Pct.median (Array.map fst times), Pct.median (Array.map snd times))

let recovery_metrics ~redone ~recovery_s =
  [
    ("wal.redo_records", float_of_int redone);
    ("wal.redo_us_per_record", if redone = 0 then 0.0 else recovery_s *. 1e6 /. float_of_int redone);
  ]

(* ---- Simulated-time windows ----

   The fleets interleave thousands of transactions on one event heap, so
   no transaction runs start to finish on the wall clock. Their wall
   tails are sampled instead: the clock's tick hook — which observes the
   clock but never advances it, so the schedule is unchanged — closes a
   window every [window_ns] of simulated time and records the wall time
   and the simulated time per commit inside it. A window without a
   commit merges into the next. Every [per_segment] windows the hook
   closes a segment of [meter]; the speed measurement is left out of the
   next window's wall time, and each window is calibrated by its
   segment's scale. *)

type windows = {
  wall_us : float array;  (** calibrated *)
  raw_us : float array;
  sim_ns : float array;
}

let with_windows ~window_ns ~per_segment ~commits meter f =
  let wall = ref [] and seg = ref [] and sim = ref [] and n = ref 0 in
  let next = ref (Span.now_ns () + window_ns) in
  let w0 = ref (now ()) and s0 = ref (Span.now_ns ()) and c0 = ref (commits ()) in
  let close () =
    let t = Span.now_ns () in
    if t >= !next then begin
      next := t + window_ns;
      let c = commits () in
      if c > !c0 then begin
        let w = now () and dc = float_of_int (c - !c0) in
        wall := ((w -. !w0) *. 1e6 /. dc) :: !wall;
        seg := meter.Calib.closed :: !seg;
        sim := (float_of_int (t - !s0) /. dc) :: !sim;
        w0 := w;
        s0 := t;
        c0 := c;
        incr n;
        if !n mod per_segment = 0 then begin
          Calib.checkpoint meter;
          w0 := now ()
        end
      end
    end
  in
  Span.set_tick_hook (Some close);
  let r = Fun.protect ~finally:(fun () -> Span.set_tick_hook None) f in
  (* The tail after the last window closes the final segment. *)
  Calib.checkpoint meter;
  let seg = Array.of_list (List.rev !seg) and raw_us = Array.of_list (List.rev !wall) in
  ( r,
    {
      wall_us = Calib.apply meter ~seg:(Array.get seg) raw_us;
      raw_us;
      sim_ns = Array.of_list (List.rev !sim);
    } )

(* ---- Simulated-time blame ---- *)

(* Run [f] with the span collector and the critical-path sink installed;
   returns its result and each phase's share of attributed transaction
   time. *)
let with_blame f =
  let coll = Span.create () in
  let cp = Critpath.create ~top_k:8 () in
  Span.install (Some coll);
  Critpath.install (Some cp);
  let r =
    Fun.protect
      ~finally:(fun () ->
        Span.finish_all coll;
        Critpath.install None;
        Span.install None)
      f
  in
  let total = Critpath.total_ns cp and totals = Critpath.blame_totals cp in
  let share ph =
    let name = Critpath.phase_name ph in
    ("blame." ^ name ^ "_frac", ratio (Option.value ~default:0 (List.assoc_opt name totals)) total)
  in
  (r, List.map share Critpath.phases)
