(** The process-wide metrics registry.

    Substrates register their {!Bess_util.Stats.t} (or a gauge callback)
    under a namespaced key at construction time; [snapshot] reads the
    whole system's counters and histograms, with gauges sampled at
    snapshot time reporting state (cache occupancy, WAL backlog, ...)
    rather than flow. Inside a {!with_fresh} scope a key names the
    instance that registered it last; a scope's end snapshot is what its
    instances counted. *)

(** Legal first components of metric names ("cache", "wal", "lock", ...).
    The metric-name hygiene test greps source literals against this table,
    the same way span kinds are checked against {!Span.kinds}. *)
val metric_namespaces : string list

(** [register_stats key stats] binds every counter and histogram of
    [stats] under [key]. Snapshot names flatten as [key ^ "." ^ counter]
    unless the counter already carries the [key ^ "."] prefix. *)
val register_stats : string -> Bess_util.Stats.t -> unit

(** [register_gauge key name fn] binds a sampled-on-demand gauge under
    [name], flattened by the same rule as counters. [fn] must be a pure
    read of substrate state: it runs at every snapshot, including from
    the {!Series} sampler. A callback that raises is dropped from the
    snapshot, not reported as 0. *)
val register_gauge : string -> string -> (unit -> int) -> unit

(** Remove the whole namespace [key]: its stats binding plus every
    gauge flattened under [key ^ "."]. *)
val unregister : string -> unit

(** [with_fresh f] empties the registry for the duration of [f] and
    restores the previous bindings on the way out, exceptions included —
    scoped isolation for tests and bench workloads that register
    substrates of their own. *)
val with_fresh : (unit -> 'a) -> 'a

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
  h_buckets : (int * int) list;
      (** cumulative [(inclusive upper bound, count)] pairs up to the
          last non-empty power-of-two bucket *)
}

type snapshot

(** Sorted [(flattened name, value)] counters of a snapshot. *)
val counters : snapshot -> (string * int) list

val histograms : snapshot -> (string * hist_summary) list

(** Sorted [(flattened name, value)] gauges, sampled when the snapshot
    was taken. *)
val gauges : snapshot -> (string * int) list

val snapshot : unit -> snapshot

(** [iter_histograms f] calls [f flattened_name hist] for every
    histogram inside a registered stats source. The {!Series} sampler reads raw buckets through this to
    compute per-window tail percentiles from bucket deltas. *)
val iter_histograms : (string -> Bess_util.Histogram.t -> unit) -> unit

val pp_snapshot : Format.formatter -> snapshot -> unit

(** A snapshot as one JSON object:
    [{"counters":{...},"gauges":{...},"histograms":{...}}]. *)
val json_of_snapshot : snapshot -> Json.t

(** Render a snapshot in Prometheus text exposition format: dots map to
    underscores under a ["bess_"] prefix, labeled counters
    (["net.calls{1->2}"]) become [{label="..."}] series, histograms
    render as summaries (quantile series plus cumulative
    [_bucket{le="..."}] lines from the power-of-two bounds and
    [_sum]/[_count]). *)
val prom_of_snapshot : snapshot -> string

(** A string as a JSON string literal ([Json.to_string (Json.Str s)]). *)
val json_string : string -> string
