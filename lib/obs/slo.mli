(** Declarative SLO rules evaluated per {!Series} window.

    A rule — parsed from ["name: metric op threshold"] — is checked
    against every closed sampling window via the series window hook.
    Metrics resolve inside the window sample: a [.p50]/[.p95]/[.p99]/
    [.p999] suffix reads that histogram's window-local tail, a bare
    name reads the counter delta over the window, falling back to the
    gauge value at window end. Metrics absent from a window skip the
    rule (counted under [slo.skips]).

    Evaluations move [slo.checks]; violations move [slo.breaches], a
    per-rule [slo.breach{name}] counter, observe the violation margin
    into [slo.breach_margin], and record an ["slo.breach"] instant in
    the installed {!Span} collector — which the flight recorder dumps,
    placing breaches on the same timeline as spans and fault firings. *)

type op = Lt | Le | Eq | Ge | Gt

type rule = { r_name : string; r_metric : string; r_op : op; r_threshold : int }

(** Parse ["[name:] metric op threshold"], op one of [<] [<=] [=] [==]
    [>=] [>]; without [name:] the metric+op+threshold string doubles as
    the name. *)
val rule_of_string : string -> (rule, string) result

type t

(** [create ()] makes a watcher with the given initial rules and
    registers its counters in {!Registry.default} under ["slo"]. *)
val create : ?rules:rule list -> unit -> t

val rules : t -> rule list
val stats : t -> Bess_util.Stats.t

(** Evaluate every rule against one window sample (the window hook
    body; exposed for tests). *)
val evaluate : t -> Series.sample -> unit

(** [watch t series] installs [t] as the series' window hook. *)
val watch : t -> Series.t -> unit

(** Remove any window hook from the series. *)
val unwatch : Series.t -> unit

val checks : t -> int
val breaches : t -> int
val breaches_of : t -> string -> int

(** Per-rule breach counts, in rule order. *)
val report : t -> (string * int) list
