(** Primitive events and hook functions (section 2.4).

    "Programmers have controlled access to a number of entry points in
    the system via the notion of primitive events and hook functions."
    Hooks are registered per event kind and run in registration order
    when the runtime fires the event — counting commits, reacting to
    segment faults or replacements, observing protection violations —
    without changing application code or system internals. *)

type t =
  | Db_open of { db : int }
  | Db_close of { db : int }
  | Slotted_fault of { seg : int }
  | Data_fault of { seg : int }
  | Write_fault of { seg : int; addr : int }
  | Segment_replacement of { area : int; page : int }
  | Lock_acquired of { txn : int; resource : Bess_lock.Lock_mgr.resource }
  | Txn_begin of { txn : int }
  | Txn_commit of { txn : int }
  | Txn_abort of { txn : int }
  | Deadlock of { txn : int }
  | Protection_violation of { addr : int; write : bool }
      (** the SIGSEGV/SIGBUS analogue the system traps (section 2.4) *)

(** The event's kind name, used as the registration key: ["db_open"],
    ["slotted_fault"], ["txn_commit"], ... *)
val kind : t -> string

val pp : Format.formatter -> t -> unit

type hooks

val hooks_create : unit -> hooks

(** [register h ~event f] runs [f] on every fired event whose {!kind} is
    [event]; multiple hooks on one event run in registration order. *)
val register : hooks -> event:string -> (t -> unit) -> unit

(** Remove every hook for [event]. *)
val clear : hooks -> event:string -> unit

(** Fire an event: record it as a {!kind}-named instant in the installed
    {!Bess_obs.Span} collector, if any, with the payload as attributes
    ([txn=7], [resource=page(3,7)]), then dispatch to its registered
    hooks. Allocates nothing when no collector is installed and no hook
    is registered for the event. *)
val fire : hooks -> t -> unit
