(* The declarative SLO watch plane.

   A rule names a per-window metric, a comparison and a threshold —
   "commit_p99: critpath.commit_ns.p99 < 50000000" — and is evaluated
   against every closed {!Series} window through the series window
   hook. Metrics resolve inside the window sample, in order: a
   .p50/.p95/.p99/.p999 suffix reads the histogram's window-local tail,
   a bare name reads the counter *delta* over the window, then falls
   back to the gauge value at window end. A metric absent from the
   window (a tail with no samples, an unregistered counter) skips the
   rule for that window — no commits means no commit-latency verdict —
   and is counted under slo.skips so silence is visible.

   Every evaluation moves slo.checks; a violated rule moves
   slo.breaches plus a per-rule labeled counter and records a
   "slo.breach" instant in the span collector, which the flight
   recorder already dumps — so a chaos artifact shows *when* the SLO
   went red relative to the spans and fault firings around it. The
   bench uses the per-rule counts as a latency-budget gate. *)

type op = Lt | Le | Eq | Ge | Gt

let op_name = function Lt -> "<" | Le -> "<=" | Eq -> "=" | Ge -> ">=" | Gt -> ">"

let holds op v threshold =
  match op with
  | Lt -> v < threshold
  | Le -> v <= threshold
  | Eq -> v = threshold
  | Ge -> v >= threshold
  | Gt -> v > threshold

type rule = { r_name : string; r_metric : string; r_op : op; r_threshold : int }

(* "name: metric op threshold" (the name part optional; the metric
   doubles as the name without it). Whitespace separates the three
   trailing tokens. *)
let rule_of_string s =
  let name, body =
    match String.index_opt s ':' with
    | Some i ->
        ( String.trim (String.sub s 0 i),
          String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> ("", String.trim s)
  in
  let tokens = List.filter (fun t -> t <> "") (String.split_on_char ' ' body) in
  match tokens with
  | [ metric; op_s; thr_s ] -> (
      let op =
        match op_s with
        | "<" -> Some Lt
        | "<=" -> Some Le
        | "=" | "==" -> Some Eq
        | ">=" -> Some Ge
        | ">" -> Some Gt
        | _ -> None
      in
      match (op, int_of_string_opt thr_s) with
      | Some op, Some threshold ->
          let name = if name = "" then metric ^ op_s ^ thr_s else name in
          Ok { r_name = name; r_metric = metric; r_op = op; r_threshold = threshold }
      | None, _ -> Error (Printf.sprintf "SLO rule %S: unknown operator %S" s op_s)
      | _, None -> Error (Printf.sprintf "SLO rule %S: threshold %S is not an integer" s thr_s))
  | _ -> Error (Printf.sprintf "SLO rule %S: expected \"[name:] metric op threshold\"" s)

type t = {
  rules : rule list; (* evaluated in order *)
  stats : Bess_util.Stats.t;
}

let create ?(rules = []) () =
  let stats = Bess_util.Stats.create () in
  ignore (Bess_util.Stats.histogram stats "slo.breach_margin");
  Registry.register_stats "slo" stats;
  { rules; stats }

let rules t = t.rules
let stats t = t.stats

(* Resolve a rule metric inside one window sample. *)
let quantile_suffix metric =
  let try_suffix suf pick =
    let ls = String.length suf and lm = String.length metric in
    if lm > ls && String.sub metric (lm - ls) ls = suf then
      Some (String.sub metric 0 (lm - ls), pick)
    else None
  in
  match try_suffix ".p999" (fun (tl : Series.tail) -> tl.Series.t_p999) with
  | Some r -> Some r
  | None -> (
      match try_suffix ".p99" (fun tl -> tl.Series.t_p99) with
      | Some r -> Some r
      | None -> (
          match try_suffix ".p95" (fun tl -> tl.Series.t_p95) with
          | Some r -> Some r
          | None -> try_suffix ".p50" (fun tl -> tl.Series.t_p50)))

let value_in sample metric =
  match quantile_suffix metric with
  | Some (hist, pick) -> Option.map pick (Series.sample_tail sample hist)
  | None -> (
      match Series.sample_delta sample metric with
      | Some d -> Some d
      | None -> Series.sample_gauge sample metric)

let evaluate t (sample : Series.sample) =
  List.iter
    (fun r ->
      match value_in sample r.r_metric with
      | None -> Bess_util.Stats.incr t.stats "slo.skips"
      | Some v ->
          Bess_util.Stats.incr t.stats "slo.checks";
          if not (holds r.r_op v r.r_threshold) then begin
            Bess_util.Stats.incr t.stats "slo.breaches";
            Bess_util.Stats.incr_labeled t.stats "slo.breach" ~label:r.r_name;
            let margin = abs (v - r.r_threshold) in
            Bess_util.Stats.observe t.stats "slo.breach_margin" margin;
            Span.instant "slo.breach"
              ~attrs:
                [ ("rule", r.r_name);
                  ("violation",
                    Printf.sprintf "%s=%d violates %s %d" r.r_metric v (op_name r.r_op)
                      r.r_threshold);
                  ("window",
                    Printf.sprintf "%d [%d..%d]" sample.Series.w_index sample.Series.w_start_ns
                      sample.Series.w_end_ns) ]
          end)
    t.rules

(* Attach to a series: every closed window is evaluated. *)
let watch t series = Series.set_window_hook series (Some (fun s -> evaluate t s))
let unwatch series = Series.set_window_hook series None

let checks t = Bess_util.Stats.get t.stats "slo.checks"
let breaches t = Bess_util.Stats.get t.stats "slo.breaches"
let breaches_of t name = Bess_util.Stats.get_labeled t.stats "slo.breach" ~label:name

(* Per-rule breach counts in rule order — the bench gate's report. *)
let report t = List.map (fun r -> (r.r_name, breaches_of t r.r_name)) t.rules
