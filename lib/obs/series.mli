(** Windowed time-series sampling on the simulated clock.

    A Series records the registry's behaviour over time: whenever the
    simulated clock crosses a window boundary (observed through the
    {!Span.set_tick_hook} hook; zero-cost when no series is installed),
    it subtracts the previous window's counter values from a registry
    snapshot and pushes the per-window counter deltas, sampled gauge
    values and window-local histogram tails into a bounded ring. Consumers read the ring after
    the run through {!to_list} (the bench's per-window latency budget
    does) — nothing runs inside a window close.

    Windows are at least [window_ns] of simulated time: one large clock
    jump closes one window spanning the jump (each sample carries its
    true [start, end], and rates divide by real width) rather than a run
    of fabricated empty windows. Counter deltas keep zeros, so a quiet
    window still distinguishes "untouched" from "unregistered". A
    substrate that restarts resets in place rather than registering a
    new instance, so its counters keep growing and no delta is
    negative. *)

type tail = {
  t_count : int;  (** samples observed inside the window *)
  t_p50 : int;
  t_p95 : int;
  t_p99 : int;
  t_p999 : int;
}

type sample = {
  w_index : int;  (** monotonically increasing window number *)
  w_start_ns : int;
  w_end_ns : int;
  w_counters : (string * int) list;  (** deltas over the window, zeros kept *)
  w_gauges : (string * int) list;  (** values at window end *)
  w_tails : (string * tail) list;
      (** window-local percentiles from histogram bucket deltas; only
          histograms that observed samples inside the window appear *)
}

type t

(** [create ()] makes a sampler of the process-wide {!Registry} keeping
    the last [capacity] windows (default 512) of at least [window_ns]
    (default 1ms simulated) each. *)
val create : ?capacity:int -> ?window_ns:int -> unit -> t

(** Install (or, with [None], remove) the ambient series: hooks the
    simulated clock and rebases the first window at the current time. *)
val install : t option -> unit

val installed : unit -> t option

(** Force-close the current partial window (no-op if no time elapsed) —
    call at the end of a run so the tail is recorded. *)
val flush : t -> unit

(** Completed windows, oldest first. *)
val to_list : t -> sample list

(** Completed windows currently retained. *)
val windows : t -> int

(** Windows evicted from the bounded ring so far. *)
val dropped : t -> int

(** The most recently completed window. *)
val last : t -> sample option

val sample_delta : sample -> string -> int option
val sample_gauge : sample -> string -> int option
val sample_tail : sample -> string -> tail option

(** Per-second rate of a counter over one sample: delta divided by the
    sample's true width. [None] if the counter is absent. *)
val sample_rate : sample -> string -> float option

val json_of_sample : sample -> Json.t

(** The whole ring as one JSON object:
    [{"window_ns":..,"dropped":..,"samples":[...]}]. *)
val json_of : t -> Json.t
