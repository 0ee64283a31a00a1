(** Deterministic discrete-event scheduler on the simulated clock.

    The event queue is a binary min-heap keyed by [(tick, seq)]: [tick]
    is the absolute simulated-nanosecond due time and [seq] a
    monotonically increasing sequence number, so events due at the same
    tick run in scheduling order. Determinism is total: the same
    schedule of calls produces the same execution order, bit for bit —
    the property the closed-loop workload driver's same-seed
    reproducibility rests on.

    [run] pops the earliest event, advances the process-wide
    {!Bess_obs.Span} clock to its due time (never backwards: an event
    whose due time has been overtaken by simulated work — a modeled log
    force, wire time — runs late at the current clock, exactly like a
    timer callback on a busy thread), and executes it. Event callbacks
    schedule follow-ups, so actors are resumable state machines: each
    closure is one step, the next step is a new event. *)

type t

(** [create ()] registers the scheduler's counters under the ["sched"]
    registry namespace. *)
val create : unit -> t

val stats : t -> Bess_util.Stats.t

(** Events waiting in the heap. *)
val pending : t -> int

(** Events executed so far. *)
val events_run : t -> int

(** Lateness (ns past due time) of the event executing right now; 0
    outside callbacks and for on-time events. Event callbacks read
    this to bill scheduler queueing delay to the work they resume —
    the aggregate lives in [sched.late_events]/[sched.late_ns]. *)
val current_lag_ns : t -> int

(** [schedule_at t ~at f]: run [f] when the simulated clock reaches
    [at] (clamped to now if already past). *)
val schedule_at : t -> at:int -> (unit -> unit) -> unit

(** [schedule t ~after f]: run [f] [after] simulated nanoseconds from
    now (non-negative). *)
val schedule : t -> after:int -> (unit -> unit) -> unit

(** Run events in [(tick, seq)] order until the heap is empty. Returns
    the number of events executed by this call. *)
val run : t -> int
