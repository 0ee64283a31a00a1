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

(** The event's payload as [key=value] pairs, used for trace entries. *)
val detail : t -> string

val pp : Format.formatter -> t -> unit

type hooks

(** A fresh hook table feeds fired events into {!Bess_obs.Trace.default};
    redirect or silence it with {!set_trace}. *)
val hooks_create : unit -> hooks

(** [set_trace h (Some tr)] routes fired events to ring [tr];
    [set_trace h None] disables tracing for [h]. *)
val set_trace : hooks -> Bess_obs.Trace.t option -> unit

val trace : hooks -> Bess_obs.Trace.t option

(** [register h ~event f] runs [f] on every fired event whose {!kind} is
    [event]; multiple hooks on one event run in registration order. *)
val register : hooks -> event:string -> (t -> unit) -> unit

(** Remove every hook for [event]. *)
val clear : hooks -> event:string -> unit

(** Fire an event: dispatch to its registered hooks. *)
val fire : hooks -> t -> unit

val stats : hooks -> Bess_util.Stats.t
