(* Windowed time-series sampling on the simulated clock.

   A Series turns the registry's point-in-time snapshots into behaviour
   over time: whenever the simulated clock crosses a window boundary
   (observed via the {!Span.set_tick_hook} hook, one branch when no
   series is installed), the sampler subtracts the previous window's
   counter values from a fresh registry snapshot and records the
   per-window counter deltas plus the sampled gauge values into a
   bounded ring. A substrate that restarts resets in place rather than
   registering a new instance, so every delta is at least 0.

   Windows are *at least* [window_ns] long: a single large clock jump (a
   100us log force against a 10us window) closes one window spanning the
   whole jump rather than fabricating a run of empty windows, and each
   sample carries its true [start, end] so rates divide by real window
   width. Deltas keep zero-valued counters so a quiet window still
   distinguishes "untouched" from "unregistered". *)

type tail = {
  t_count : int; (* samples observed inside the window *)
  t_p50 : int;
  t_p95 : int;
  t_p99 : int;
  t_p999 : int;
}

type sample = {
  w_index : int; (* monotonically increasing window number *)
  w_start_ns : int;
  w_end_ns : int;
  w_counters : (string * int) list; (* deltas over the window, zeros kept *)
  w_gauges : (string * int) list; (* values at window end *)
  w_tails : (string * tail) list; (* window-local percentiles, active hists only *)
}

type t = {
  window_ns : int;
  ring : sample option array;
  mutable head : int;
  mutable length : int;
  mutable next_index : int;
  mutable dropped : int;
  mutable window_start : int;
  mutable base : Registry.snapshot;
  hist_base : (string, int array) Hashtbl.t; (* raw buckets at window start *)
  mutable sampling : bool; (* reentrancy guard: gauges must not resample *)
}

let rebase_hists t =
  Hashtbl.reset t.hist_base;
  Registry.iter_histograms (fun name h ->
      Hashtbl.replace t.hist_base name (Bess_util.Histogram.raw_buckets h))

let create ?(capacity = 512) ?(window_ns = 1_000_000) () =
  if capacity <= 0 then invalid_arg "Series.create: capacity must be positive";
  if window_ns <= 0 then invalid_arg "Series.create: window_ns must be positive";
  let t =
    {
      window_ns;
      ring = Array.make capacity None;
      head = 0;
      length = 0;
      next_index = 0;
      dropped = 0;
      window_start = Span.now_ns ();
      base = Registry.snapshot ();
      hist_base = Hashtbl.create 32;
      sampling = false;
    }
  in
  rebase_hists t;
  t

let push t s =
  (match t.ring.(t.head) with
  | Some _ -> t.dropped <- t.dropped + 1
  | None -> ());
  t.ring.(t.head) <- Some s;
  t.head <- (t.head + 1) mod Array.length t.ring;
  if t.length < Array.length t.ring then t.length <- t.length + 1

(* Window-local tail percentiles: the bucket-delta of each histogram
   against its window-start copy, interpolated the same way as the
   whole-run percentiles. Quiet histograms (no samples this window) are
   omitted — a tail over zero observations is noise, not signal. *)
let window_tails t =
  let out = ref [] in
  Registry.iter_histograms (fun name h ->
      let cur = Bess_util.Histogram.raw_buckets h in
      let delta =
        match Hashtbl.find_opt t.hist_base name with
        | None -> cur
        | Some base -> Array.mapi (fun i v -> v - base.(i)) cur
      in
      Hashtbl.replace t.hist_base name cur;
      let n = Array.fold_left ( + ) 0 delta in
      if n > 0 then
        let p q = Bess_util.Histogram.percentile_of_counts delta q in
        out :=
          (name, { t_count = n; t_p50 = p 50.0; t_p95 = p 95.0; t_p99 = p 99.0; t_p999 = p 99.9 })
          :: !out);
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let close_window t ~now =
  let snap = Registry.snapshot () in
  (* A counter first seen this window (its substrate registered inside
     it) counts from 0. *)
  let base = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace base k v) (Registry.counters t.base);
  let delta (k, v) = (k, v - Option.value ~default:0 (Hashtbl.find_opt base k)) in
  let s =
    {
      w_index = t.next_index;
      w_start_ns = t.window_start;
      w_end_ns = now;
      w_counters = List.map delta (Registry.counters snap);
      w_gauges = Registry.gauges snap;
      w_tails = window_tails t;
    }
  in
  push t s;
  t.next_index <- t.next_index + 1;
  t.base <- snap;
  t.window_start <- now

let tick t =
  if not t.sampling then begin
    let now = Span.now_ns () in
    if now - t.window_start >= t.window_ns then begin
      t.sampling <- true;
      Fun.protect ~finally:(fun () -> t.sampling <- false) (fun () -> close_window t ~now)
    end
  end

(* Force-close the current window even if the clock has not crossed a
   boundary — the tail of a run would otherwise be lost. Empty partial
   windows (no time elapsed) are skipped. *)
let flush t =
  if not t.sampling then begin
    let now = Span.now_ns () in
    if now > t.window_start then begin
      t.sampling <- true;
      Fun.protect ~finally:(fun () -> t.sampling <- false) (fun () -> close_window t ~now)
    end
  end

(* ---- Installation --------------------------------------------------------- *)

let the_series : t option ref = ref None

let install s =
  the_series := s;
  match s with
  | None -> Span.set_tick_hook None
  | Some t ->
      t.window_start <- Span.now_ns ();
      t.base <- Registry.snapshot ();
      rebase_hists t;
      Span.set_tick_hook (Some (fun () -> tick t))

let installed () = !the_series

(* ---- Queries --------------------------------------------------------------- *)

let to_list t =
  let cap = Array.length t.ring in
  let first = (t.head - t.length + cap) mod cap in
  List.init t.length (fun i ->
      match t.ring.((first + i) mod cap) with Some s -> s | None -> assert false)

let windows t = t.length
let dropped t = t.dropped

let last t =
  if t.length = 0 then None
  else
    t.ring.((t.head - 1 + Array.length t.ring) mod Array.length t.ring)

let sample_delta s name = List.assoc_opt name s.w_counters
let sample_gauge s name = List.assoc_opt name s.w_gauges
let sample_tail s name = List.assoc_opt name s.w_tails

(* Per-second rate of [name] over sample [s]: delta divided by the true
   window width. *)
let sample_rate s name =
  match sample_delta s name with
  | None -> None
  | Some d ->
      let width = s.w_end_ns - s.w_start_ns in
      if width <= 0 then None else Some (float_of_int d *. 1e9 /. float_of_int width)

(* ---- JSON export ----------------------------------------------------------- *)

let json_of_sample s =
  let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) kvs) in
  Json.Obj
    [ ("i", Json.int s.w_index); ("start_ns", Json.int s.w_start_ns);
      ("end_ns", Json.int s.w_end_ns); ("counters", ints s.w_counters);
      ("gauges", ints s.w_gauges);
      ( "tails",
        Json.Obj
          (List.map
             (fun (k, tl) ->
               ( k,
                 Json.Obj
                   [ ("count", Json.int tl.t_count); ("p50", Json.int tl.t_p50);
                     ("p95", Json.int tl.t_p95); ("p99", Json.int tl.t_p99);
                     ("p999", Json.int tl.t_p999) ] ))
             s.w_tails) ) ]

let json_of t =
  Json.Obj
    [ ("window_ns", Json.int t.window_ns); ("dropped", Json.int t.dropped);
      ("samples", Json.Arr (List.map json_of_sample (to_list t))) ]
