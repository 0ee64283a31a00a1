(* The process-wide metrics registry.

   Every substrate registers its {!Bess_util.Stats.t} under a namespaced
   key -- "vmem", "cache", "wal", "lock", "net", "session", ... -- so a
   snapshot of the whole system's counters and histograms can be taken at
   any point: the experiments argue from *counts* (faults taken,
   protection changes, log forces, messages sent).

   Besides counters and histograms the registry holds *gauges*: named
   callbacks sampled on demand at snapshot time, reporting state rather
   than flow -- cache occupancy, WAL backlog, lock-table depth. Gauges are
   what the windowed sampler ({!Series}) and the flight recorder read to
   see the system's shape, not just its throughput.

   Inside a scope ({!with_fresh}) a key names the instance that
   registered it last. Each bench experiment and each test runs in a
   scope of its own, and a substrate that restarts (a server crash)
   resets its state in place rather than registering a second instance,
   so a scope's end snapshot is what that scope's instances counted and
   a key does not change instance under a running {!Series}. Keys in a
   snapshot are flattened as [<reg key>.<counter name>], except that a
   counter already carrying its namespace prefix (most do:
   "vmem.reserve_calls" under "vmem") is kept as-is rather than doubled.
   Gauges are flattened by the same rule. *)

let sources : (string, Bess_util.Stats.t) Hashtbl.t = Hashtbl.create 16
let gauge_fns : (string, unit -> int) Hashtbl.t = Hashtbl.create 16 (* key = flattened name *)

(* Every metric name is [<namespace>.<rest>] with this table as the set of
   legal first components; the hygiene test greps the source tree for
   metric-name literals and checks them against it (the same pattern as
   Span.kinds for span kinds). Keep sorted. *)
let metric_namespaces =
  [
    "2pc";
    "area";
    "buddy";
    "cache";
    "critpath";
    "fault";
    "flat";
    "heat";
    "lob";
    "lock";
    "log";
    "mrc";
    "net";
    "node";
    "phys";
    "reorg";
    "sched";
    "server";
    "session";
    "soft";
    "span";
    "state_clock";
    "store";
    "two_level";
    "vmem";
    "wal";
  ]

let flatten_key key name =
  let prefix = key ^ "." in
  if String.length name >= String.length prefix
     && String.sub name 0 (String.length prefix) = prefix
  then name
  else prefix ^ name

let register_stats key stats = Hashtbl.replace sources key stats

(* The callback must be a pure read of substrate state -- it runs at
   every snapshot, including from the windowed sampler. *)
let register_gauge key name fn = Hashtbl.replace gauge_fns (flatten_key key name) fn

(* [unregister key] drops the whole namespace: the stats binding plus
   every gauge whose flattened name lives under [key ^ "."]. *)
let unregister key =
  Hashtbl.remove sources key;
  let prefix = key ^ "." in
  Hashtbl.filter_map_inplace
    (fun k fn -> if String.starts_with ~prefix k then None else Some fn)
    gauge_fns

(* Scoped reset: the registry is process-global mutable state, so tests
   and bench workloads that build substrates would otherwise leak
   registrations into each other. [f] runs against an emptied registry;
   the previous bindings are restored afterwards, exceptions included. *)
let with_fresh f =
  let save tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let restore tbl saved =
    Hashtbl.reset tbl;
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) saved
  in
  let saved_sources = save sources and saved_gauges = save gauge_fns in
  Hashtbl.reset sources;
  Hashtbl.reset gauge_fns;
  Fun.protect
    ~finally:(fun () ->
      restore sources saved_sources;
      restore gauge_fns saved_gauges)
    f

(* ---- Snapshots ----------------------------------------------------------- *)

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_mean : float;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
  h_p999 : int;
  h_buckets : (int * int) list; (* cumulative (inclusive upper bound, count) *)
}

type snapshot = {
  counters : (string * int) list; (* sorted by name *)
  hists : (string * hist_summary) list; (* sorted by name *)
  gauges : (string * int) list; (* sorted by name; values sampled at snapshot *)
}

let counters s = s.counters
let histograms s = s.hists
let gauges s = s.gauges

let summarize h =
  {
    h_count = Bess_util.Histogram.count h;
    h_sum = Bess_util.Histogram.sum h;
    h_min = Bess_util.Histogram.min h;
    h_max = Bess_util.Histogram.max h;
    h_mean = Bess_util.Histogram.mean h;
    h_p50 = Bess_util.Histogram.percentile h 50.0;
    h_p90 = Bess_util.Histogram.percentile h 90.0;
    h_p99 = Bess_util.Histogram.percentile h 99.0;
    h_p999 = Bess_util.Histogram.percentile h 99.9;
    h_buckets = Bess_util.Histogram.buckets h;
  }

let by_name (a, _) (b, _) = String.compare a b

(* Iterate every live histogram of the registered Stats sources with
   flattened names. The windowed sampler uses the raw buckets to compute
   per-window tail percentiles from bucket deltas, which a summarized
   snapshot cannot provide. *)
let iter_histograms f =
  Hashtbl.iter
    (fun key st ->
      List.iter
        (fun (name, h) -> f (flatten_key key name) h)
        (Bess_util.Stats.histograms st))
    sources

let snapshot () =
  let counters = ref [] and hists = ref [] in
  Hashtbl.iter
    (fun key st ->
      List.iter
        (fun (name, v) -> counters := (flatten_key key name, v) :: !counters)
        (Bess_util.Stats.to_list st);
      List.iter
        (fun (name, h) -> hists := (flatten_key key name, summarize h) :: !hists)
        (Bess_util.Stats.histograms st))
    sources;
  let gauges =
    Hashtbl.fold
      (fun key fn acc ->
        (* A gauge whose substrate died under it (closure raising) is
           dropped from the snapshot rather than fabricated as 0. *)
        match fn () with v -> (key, v) :: acc | exception _ -> acc)
      gauge_fns []
  in
  {
    counters = List.sort by_name !counters;
    hists = List.sort by_name !hists;
    gauges = List.sort by_name gauges;
  }

(* ---- Rendering ------------------------------------------------------------ *)

let pp_hist_summary ppf h =
  Fmt.pf ppf "n=%d sum=%d mean=%.1f min=%d p50=%d p90=%d p99=%d p999=%d max=%d" h.h_count
    h.h_sum h.h_mean h.h_min h.h_p50 h.h_p90 h.h_p99 h.h_p999 h.h_max

let pp_snapshot ppf s =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (k, v) -> Fmt.pf ppf "%-40s %d" k v))
    s.counters;
  List.iter (fun (k, v) -> Fmt.pf ppf "@,%-40s %d (gauge)" k v) s.gauges;
  List.iter (fun (k, h) -> Fmt.pf ppf "@,%-40s %a" k pp_hist_summary h) s.hists

let json_string s = Json.to_string (Json.Str s)

let json_of_snapshot s =
  let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) kvs) in
  Json.Obj
    [ ("counters", ints s.counters);
      ("gauges", ints s.gauges);
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, h) ->
               ( k,
                 Json.Obj
                   [ ("count", Json.int h.h_count); ("sum", Json.int h.h_sum);
                     ("min", Json.int h.h_min); ("max", Json.int h.h_max);
                     ("mean", Json.fixed 3 h.h_mean); ("p50", Json.int h.h_p50);
                     ("p90", Json.int h.h_p90); ("p99", Json.int h.h_p99);
                     ("p999", Json.int h.h_p999) ] ))
             s.hists) ) ]

(* ---- Prometheus text exposition ------------------------------------------ *)

(* Metric names map dots to underscores under a "bess_" prefix; labeled
   counters ("net.calls{1->2}", the Stats labeled-counter convention)
   become proper Prometheus labels [bess_net_calls{label="1->2"}].
   Histograms render as summaries (quantile series + _sum/_count). *)

let prom_name s =
  let buf = Buffer.create (String.length s + 5) in
  Buffer.add_string buf "bess_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    s;
  Buffer.contents buf

let split_label k =
  match String.index_opt k '{' with
  | Some i when String.length k > i + 1 && k.[String.length k - 1] = '}' ->
      (String.sub k 0 i, Some (String.sub k (i + 1) (String.length k - i - 2)))
  | _ -> (k, None)

let prom_escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_of_snapshot s =
  let buf = Buffer.create 4096 in
  let typed = Hashtbl.create 64 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (k, v) ->
      let base, label = split_label k in
      let name = prom_name base in
      type_line name "counter";
      match label with
      | None -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
      | Some l ->
          Buffer.add_string buf
            (Printf.sprintf "%s{label=\"%s\"} %d\n" name (prom_escape_label l) v))
    s.counters;
  List.iter
    (fun (k, v) ->
      let name = prom_name k in
      type_line name "gauge";
      Buffer.add_string buf (Printf.sprintf "%s %d\n" name v))
    s.gauges;
  List.iter
    (fun (k, h) ->
      let name = prom_name k in
      type_line name "summary";
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf (Printf.sprintf "%s{quantile=\"%s\"} %d\n" name q v))
        [ ("0.5", h.h_p50); ("0.9", h.h_p90); ("0.99", h.h_p99); ("0.999", h.h_p999) ];
      (* Cumulative buckets from the power-of-two bounds, Prometheus
         histogram convention ([le] is inclusive; the bounds are
         [2^(i+1) - 1], so they are). A scrape-side histogram_quantile
         then agrees with the summary quantiles above. *)
      List.iter
        (fun (le, cum) ->
          Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name le cum))
        h.h_buckets;
      Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.h_count);
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" name h.h_sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.h_count))
    s.hists;
  Buffer.contents buf
