(** Causal span tracing on the simulated clock, and the system's one
    event record.

    A span is one timed step of a request's causal chain — an RPC, a
    fault wave, a log force, a lock wait — with an id, its parent span,
    a kind from the central {!kinds} table, start/end stamps on the
    process-wide simulated clock, and key/value attributes. An instant
    is a zero-width named event with attributes: a primitive event
    ({!Core.Event.fire}) or a fault firing. Completed spans
    and instants share one bounded ring (a {!t} collector); per-kind
    span durations feed a histogram registered in the {!Registry} under
    ["span"], so reports get a latency breakdown for free.

    Context propagation is dynamic scoping: {!with_span} (and {!enter})
    make the new span the ambient current span, and children opened
    anywhere below — the net layer, the fault handler, the lock table —
    attach to it without explicit plumbing. Tracing is off until a
    collector is {!install}ed; every entry point is a no-op while
    disabled.

    The clock is a process-wide simulated-nanosecond counter that only
    substrates modelling a cost (wire time, fault traps, log forces)
    move, through {!advance_ns}; tracing never moves it. Every open,
    close and instant also takes the collector's next sequence number,
    and stamps order by [(ns, seq)]: a child's start and end fall
    strictly inside its parent's in that order, even when they share a
    nanosecond. *)

type span = {
  id : int;
  mutable parent : span option;
      (** The span that was ambient when this one opened (after an
          out-of-order close, its nearest still-open ancestor). The
          record outlives its eviction from the ring: read it through
          {!live_parent}, for which an evicted parent is absent and the
          span a root. *)
  kind : string;
  hist : Bess_util.Stats.hist;  (** the kind's duration histogram *)
  start_ns : int;
  start_seq : int;
  mutable end_ns : int;  (** [-1] while the span is open *)
  mutable end_seq : int;  (** [-1] while the span is open *)
  mutable attrs : (string * string) list;
  mutable retained : bool;
      (** Open, or closed and still in the ring; the ring clears it when
          it evicts the span. *)
}

(** A zero-width event, stamped [(i_ns, i_seq)]. *)
type instant = { i_name : string; i_ns : int; i_seq : int; i_attrs : (string * string) list }

(** A bounded collector of completed spans and instants. *)
type t

(** An open span; closing is explicit. [none] when tracing is disabled. *)
type handle

(** The central table of every span kind the system may open. Opening a
    kind not listed here raises [Invalid_argument] — a typo'd kind is a
    bug, and the hygiene test greps call sites against this table. *)
val kinds : string list

(** [create ()] makes a collector keeping the last [capacity] completed
    spans and instants (default 65536) and registers its per-kind
    duration histograms in the {!Registry} under ["span"]. *)
val create : ?capacity:int -> unit -> t

(** Install (or, with [None], remove) the ambient collector; no span
    is current afterwards. *)
val install : t option -> unit

val installed : unit -> t option
val enabled : unit -> bool

(** The installed collector and the ambient span current under it. *)
type saved

val save : unit -> saved

(** Put back a {!save}d collector and its ambient span, so spans
    opened after a scoped install still parent to the outer context. *)
val restore : saved -> unit

(** Current simulated time in nanoseconds. *)
val now_ns : unit -> int

(** Advance the simulated clock (substrate cost models; non-positive
    amounts are ignored). Cheap enough to call unconditionally. *)
val advance_ns : int -> unit

(** Install (or, with [None], remove) the clock-tick hook: called after
    every positive {!advance_ns}, once the clock has moved. One match on
    a ref when absent — the {!Series} sampler uses it to close sampling
    windows in simulated time. The hook must not advance the clock. *)
val set_tick_hook : (unit -> unit) option -> unit

val none : handle

(** [with_span ~kind f] opens a child of the ambient span, makes it
    current, runs [f], and closes it — on exceptions too. *)
val with_span : ?attrs:(string * string) list -> kind:string -> (unit -> 'a) -> 'a

(** [enter ~kind ()] opens a child of the ambient span and makes it
    current until {!finish}; for spans that cross function boundaries
    (a transaction between [begin_txn] and [commit]). *)
val enter : ?attrs:(string * string) list -> kind:string -> unit -> handle

(** [start ~kind ()] opens a span without making it current. With
    [~root:true] it is parentless — for waits that outlive the stack
    context that opened them (a lock queue entry granted many calls
    later). *)
val start : ?root:bool -> ?attrs:(string * string) list -> kind:string -> unit -> handle

(** Close a span opened by {!enter} or {!start}, appending [attrs].
    Closing [none] or a closed handle is a no-op (the latter counts
    [span.double_close]). A span closed after its parent is counted
    under [span.out_of_order], marked with an [out_of_order] attribute
    and reparented to its nearest still-open ancestor so the nesting
    invariant survives. *)
val finish : ?attrs:(string * string) list -> handle -> unit

(** [with_handle h f] makes the (still-open) span behind [h] the
    ambient current span for the extent of [f], restoring the previous
    context afterwards — for resumable work (scheduler event segments)
    that re-enters a long-lived span across calls. A no-op with
    {!none}. *)
val with_handle : handle -> (unit -> 'a) -> 'a

(** [instant name] records a zero-width event at the current stamp in
    the installed collector. Nothing happens, and nothing is allocated,
    without one; a caller that builds [attrs] on a hot path checks
    {!enabled} first. *)
val instant : ?attrs:(string * string) list -> string -> unit

(** Attach an attribute to the ambient current span, if any. *)
val annotate : string -> string -> unit

(** Attach an attribute to the span behind a handle (open or closed);
    a no-op with {!none}. *)
val annotate_handle : handle -> string -> string -> unit

(** Close every span still open (most recently opened first), marking each with an
    [unclosed] attribute and counting [span.unclosed] — call at trace
    end so leftovers are reported, not silently dropped. *)
val finish_all : t -> unit

(** Completed spans, oldest close first. *)
val to_list : t -> span list

(** Retained instants, oldest first; with [~within], only those taken
    while that span was open (after its start, before its end). *)
val instants : ?within:span -> t -> instant list

(** Completed spans and instants evicted from the bounded buffer so far. *)
val dropped : t -> int

(** The per-kind duration histograms and anomaly counters. *)
val stats : t -> Bess_util.Stats.t

(** Install (or, with [None], remove) the span-close hook: called once
    per span as it completes, after reparenting and buffering, with the
    collector and the closed span. Parents of the closed span may still
    be open; a consumer walks up through {!live_parent}. One match on a
    ref when absent. The {!Critpath} sink uses it to consume transaction
    trees online, independent of ring retention. *)
val set_close_hook : (t -> span -> unit) option -> unit

val duration : span -> int

(** The span's parent, or [None] for a root and for a span whose parent
    the ring has evicted. *)
val live_parent : span -> span option

(** The longest retained span of [kind] (default ["session.txn"]); with
    none, the longest retained root (a span whose parent is absent:
    never set, or evicted). *)
val slowest : ?kind:string -> t -> span option

(** Indented text timeline of [root] and its retained descendants. *)
val pp_tree : t -> Format.formatter -> span -> unit

(** The collector's buffer in Chrome [trace_event] JSON — loads in
    chrome://tracing and Perfetto. Spans are complete "X" events,
    instants global "i" events, microsecond timestamps, all in
    [(ns, seq)] order of their start. Each span's track (tid) is its root
    ancestor, so every transaction renders as its own timeline row.
    [limit] keeps only the newest entries; with no collector the event
    array is empty. [members] are extra top-level [(name, value)] pairs
    (the flight recorder's sections). *)
val to_chrome_json : ?limit:int -> ?members:(string * Json.t) list -> t option -> string
