(* Table rendering for the experiment harness.

   Each experiment prints one table in the style of the paper's would-be
   evaluation section: a caption tying it to the claim it reproduces, a
   header row, and aligned data rows. Cells are strings; helpers format
   counts, nanoseconds, bytes and ratios consistently. *)

let ns v =
  if v >= 1_000_000_000.0 then Printf.sprintf "%.2fs" (v /. 1e9)
  else if v >= 1_000_000.0 then Printf.sprintf "%.2fms" (v /. 1e6)
  else if v >= 1_000.0 then Printf.sprintf "%.2fus" (v /. 1e3)
  else Printf.sprintf "%.0fns" v

let bytes v =
  let f = float_of_int v in
  if f >= 1073741824.0 then Printf.sprintf "%.2fGB" (f /. 1073741824.0)
  else if f >= 1048576.0 then Printf.sprintf "%.2fMB" (f /. 1048576.0)
  else if f >= 1024.0 then Printf.sprintf "%.1fKB" (f /. 1024.0)
  else Printf.sprintf "%dB" v

let count v =
  if v >= 1_000_000 then Printf.sprintf "%.2fM" (float_of_int v /. 1e6)
  else if v >= 10_000 then Printf.sprintf "%.1fk" (float_of_int v /. 1e3)
  else string_of_int v

let ratio v = Printf.sprintf "%.2fx" v
let fixed f = Printf.sprintf "%.3f" f
let percent f = Printf.sprintf "%.1f%%" (100.0 *. f)

let table ~id ~caption ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> Stdlib.max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let line ch =
    String.concat "+" (List.map (fun w -> String.make (w + 2) ch) widths)
  in
  let render row =
    String.concat "|"
      (List.map2 (fun cell w -> Printf.sprintf " %-*s " w cell) row widths)
  in
  Printf.printf "\n=== %s: %s\n" id caption;
  Printf.printf "%s\n" (render header);
  Printf.printf "%s\n" (line '-');
  List.iter (fun row -> Printf.printf "%s\n" (render row)) rows;
  Printf.printf "%!"

let note fmt = Printf.printf ("    " ^^ fmt ^^ "\n%!")

(* ---- Observability report --------------------------------------------- *)

(* Each experiment runs under [with_observed], which brackets it with
   registry snapshots; the per-substrate counter deltas and histogram
   summaries accumulate here and [write_json] dumps them at exit. *)

type observed = {
  obs_name : string;
  obs_elapsed_ns : float;
  obs_diff : Bess_obs.Registry.snapshot;
}

let observations : observed list ref = ref []

let with_observed name f =
  let before = Bess_obs.Registry.snapshot () in
  let t0 = Unix.gettimeofday () in
  let r =
    Bess_obs.Span.with_span ~kind:"bench.workload" ~attrs:[ ("name", name) ] f
  in
  let elapsed = (Unix.gettimeofday () -. t0) *. 1e9 in
  let after = Bess_obs.Registry.snapshot () in
  observations :=
    { obs_name = name;
      obs_elapsed_ns = elapsed;
      obs_diff = Bess_obs.Registry.diff ~before ~after () }
    :: !observations;
  r

(* Per-span-kind latency summary from the installed collector's
   histograms ("span.<kind>" under the registry's "span" prefix), in
   simulated nanoseconds. Empty when tracing is off. *)
let span_breakdown_json () =
  match Bess_obs.Span.installed () with
  | None -> None
  | Some c ->
      let h = Bess_util.Stats.histograms (Bess_obs.Span.stats c) in
      let entries =
        List.filter_map
          (fun (name, hist) ->
            if Bess_util.Histogram.count hist = 0 then None
            else
              let kind =
                if String.length name > 5 && String.sub name 0 5 = "span." then
                  String.sub name 5 (String.length name - 5)
                else name
              in
              let p q = Bess_util.Histogram.percentile hist q in
              Some
                (Printf.sprintf
                   "%s:{\"count\":%d,\"sum_ns\":%d,\"mean_ns\":%.1f,\"p50_ns\":%d,\"p90_ns\":%d,\"p99_ns\":%d,\"max_ns\":%d}"
                   (Bess_obs.Registry.json_string kind)
                   (Bess_util.Histogram.count hist)
                   (Bess_util.Histogram.sum hist)
                   (Bess_util.Histogram.mean hist)
                   (p 50.0) (p 90.0) (p 99.0)
                   (Bess_util.Histogram.max hist)))
          (List.sort compare h)
      in
      Some (Printf.sprintf "{%s}" (String.concat "," entries))

(* Extra top-level JSON sections ("e13_series": {...}) contributed by
   experiments; each value must already be rendered JSON. *)
let extra_sections : (string * string) list ref = ref []
let add_section name json = extra_sections := (name, json) :: !extra_sections

let write_json path =
  let oc = open_out path in
  output_string oc "{\"workloads\":[";
  List.iteri
    (fun i o ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc "{\"name\":%s,\"elapsed_ns\":%.0f,\"observed\":%s}"
        (Bess_obs.Registry.json_string o.obs_name)
        o.obs_elapsed_ns
        (Bess_obs.Registry.json_of_snapshot o.obs_diff))
    (List.rev !observations);
  output_string oc "]";
  (match span_breakdown_json () with
  | Some b -> Printf.fprintf oc ",\"span_breakdown\":%s" b
  | None -> ());
  List.iter
    (fun (name, json) ->
      Printf.fprintf oc ",%s:%s" (Bess_obs.Registry.json_string name) json)
    (List.rev !extra_sections);
  output_string oc "}\n";
  close_out oc

(* One experiment's artifacts: [json] becomes the bench_report.json
   section [section] and, after the experiment name, a wall-clock stamp
   and [fields] (name, rendered JSON), the last field [key] of a
   timestamped BENCH_<id>.json, so successive runs accumulate comparable
   files (the report section is overwritten each time). *)
let artifact ~id ~what ~section ~fields (key, json) =
  add_section section json;
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let stamp =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
  in
  let path = "BENCH_" ^ id ^ ".json" in
  let oc = open_out path in
  output_string oc "{";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "%s%s:%s" (if i = 0 then "" else ",") (Bess_obs.Registry.json_string k) v)
    ([ ("experiment", Bess_obs.Registry.json_string id);
       ("wall_time", Bess_obs.Registry.json_string stamp) ]
    @ fields @ [ (key, json) ]);
  output_string oc "}\n";
  close_out oc;
  note "%s written to %s (%s) and bench_report.json#%s" what path stamp section

(* Wall-clock timing of a thunk, median of [runs]. *)
let time_ns ?(runs = 3) f =
  let samples =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        (Unix.gettimeofday () -. t0) *. 1e9)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (runs / 2)

(* Per-op timing: run f() [iters] times, return ns/op (median of [runs]
   timed batches, to shed scheduler noise). *)
let time_per_op ?(runs = 3) ~iters f =
  let one () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let samples = List.init runs (fun _ -> one ()) in
  List.nth (List.sort compare samples) (runs / 2)
