(** A bounded ring of trace entries with logical-clock timestamps.

    {!Core.Event.fire} feeds primitive events here so fault waves and
    lock/deadlock sequences can be replayed in tests. The ring keeps the
    last [capacity] accepted entries; the logical clock advances on every
    [record] call, filtered or not. *)

type entry = { seq : int; clock : int; kind : string; detail : string }

type t

val create : ?capacity:int -> unit -> t

(** The default, process-wide ring that freshly created hook tables feed. *)
val default : t

val capacity : t -> int
val length : t -> int

(** Current logical time: the number of [record] calls so far. *)
val clock : t -> int

(** [set_filter t (Some kinds)] records only the listed event kinds;
    [set_filter t None] (the initial state) records everything. *)
val set_filter : t -> string list option -> unit

val record : t -> kind:string -> detail:string -> unit

(** [record_lazy t ~kind render] records an entry whose detail is
    [render ()], called each time the entry is read ({!to_list},
    {!find}) and never for an entry the filter drops. [render] must read
    only immutable data. *)
val record_lazy : t -> kind:string -> (unit -> string) -> unit

(** Retained entries, oldest first, details rendered now. *)
val to_list : t -> entry list

(** Retained entries of one kind, oldest first. *)
val find : t -> kind:string -> entry list

val clear : t -> unit

(** [with_fresh f] zeroes the ring (default: the process-wide one) —
    entries, clock, sequence numbers and filter — for the duration of
    [f], restoring the previous state on the way out, exceptions
    included. *)
val with_fresh : ?trace:t -> (unit -> 'a) -> 'a
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
