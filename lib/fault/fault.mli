(** Process-wide deterministic fault injection.

    The robustness analogue of the observability registry: named
    injection sites at the boundaries failures actually cross (WAL
    force, page flush, network delivery) consult this module to decide
    whether to misbehave. Every decision comes from a per-site
    splitmix64 stream derived from one master seed, so a fault schedule
    is exactly reproducible: same seed + same per-site check sequence =
    same faults, regardless of how other sites interleave.

    When every site is [Never] (the default), [fire] is a single load
    and branch — workloads with faults disabled are bit-identical to a
    build without this module. *)

(** Per-site firing policy.

    - [Never]: the site is disarmed (default for unconfigured sites).
    - [Every_n n]: fire on every [n]-th check (the [n]-th, [2n]-th, ...).
    - [Prob p]: fire each check independently with probability [p],
      drawn from the site's own deterministic stream.
    - [Plan ordinals]: fire exactly on the listed check ordinals
      (1-based) — precise schedules for regression tests. *)
type policy = Never | Every_n of int | Prob of float | Plan of int list

(** Raised by a site whose bounded internal retries are exhausted
    (e.g. a log force failing its third consecutive attempt). *)
exception Injected of string

(** [seed s] sets the master seed: every site's stream is re-derived
    from [(s, site name)] and all check counters and schedules reset.
    Policies are kept. *)
val seed : int -> unit

(** [configure site policy] arms (or disarms) one site. *)
val configure : string -> policy -> unit

(** [apply_profile profile] configures every [(site, policy)] pair. *)
val apply_profile : (string * policy) list -> unit

(** Disarm everything: all sites dropped, counters and schedules
    cleared, master seed kept. *)
val reset : unit -> unit

(** The arming in force: master seed and every site's policy. *)
type saved

val save : unit -> saved

(** [restore saved] disarms everything, then re-arms [saved]'s sites
    from its seed: streams restart and counters clear, as after
    {!seed}. Restoring a save taken while nothing was configured is
    {!reset}. *)
val restore : saved -> unit

(** True when at least one site has a non-[Never] policy. *)
val armed : unit -> bool

(** [fire site] is the injection decision for one check at [site].
    Counts the check and, when the policy says so, the fire (visible as
    [fault.checks{site}] / [fault.fires{site}] in the obs registry); a
    fire is also a ["fault:<site>"] instant, with its [ordinal], in the
    installed {!Bess_obs.Span} collector.
    Always [false] when nothing is armed or [site] is unconfigured. *)
val fire : string -> bool

(** [draw site ~bound] is a deterministic value in [0, bound) from the
    site's stream — fault magnitudes (tear sizes, delay spikes) that
    stay on the reproducible schedule. 0 if the site is unconfigured. *)
val draw : string -> bound:int -> int

(** Check ordinals (1-based, ascending) at which [site] has fired since
    the last [seed]/[reset] — the reproducibility witness. *)
val schedule : string -> int list

(** Current [(site, policy)] bindings, sorted by site name. *)
val configured : unit -> (string * policy) list

(** The registry's counters ([fault.checks{site}], [fault.fires{site}],
    aggregate [fault.fires]). Registered under ["fault"] in the default
    obs registry whenever a site is configured. *)
val stats : unit -> Bess_util.Stats.t

val policy_to_string : policy -> string

(** Parse ["never"], ["every:N"], ["prob:P"] or ["plan:3+17+40"]. *)
val policy_of_string : string -> (policy, string) result

(** Named profiles, chosen by name in [bessctl chaos] and [bessctl shard]
    and by the bench experiments that arm one. *)
val profiles : (string * (string * policy) list) list

(** [profile_of_string spec] resolves a named profile ([off],
    [flaky-net], [flaky-disk], [chaos]) or parses an explicit
    [site=policy,site=policy] list. *)
val profile_of_string : string -> ((string * policy) list, string) result
