(** Group commit: amortise synchronous log forces across committers.

    Commit sites register a durability {!ticket} for their decisive LSN
    via {!commit_lsn} and acknowledge the client only after {!await}
    returns; the scheduler issues one coalesced {!Log.flush} per group
    according to {!policy}, releasing every waiting ticket the durable
    prefix covers. Forces are surfaced in the log's stats under
    [wal.group.forces], [wal.group.commits_per_force] (histogram) and
    [wal.force_wait_ns] (histogram, simulated ns from registration to
    release), and traced as [wal.group_force] spans. *)

type policy =
  | Immediate  (** force on registration — one fsync per commit (default) *)
  | Group_n of int  (** force once per [n] pending committers *)
  | Window of int
      (** force once the simulated clock is this many ns past the oldest
          pending registration *)

type ticket
type t

(** Raised by {!await} when the ticket's log tail was lost to a crash
    before durability: the commit was never acknowledged. *)
exception Lost_ticket

val create : ?policy:policy -> Log.t -> t
val policy : t -> policy

(** Change the policy, draining any pending tickets under the old one. *)
val set_policy : t -> policy -> unit

(** Number of registered-but-unreleased tickets. *)
val pending : t -> int

(** The underlying log's stats: the group-commit counters live there. *)
val stats : t -> Bess_util.Stats.t

(** Register a waiter for [lsn]; may force immediately per policy. *)
val commit_lsn : t -> lsn:int -> ticket

(** Block the simulated client until the ticket's LSN is durable,
    forcing the pending group if needed. The return is the commit
    acknowledgement; it never precedes durability. *)
val await : t -> ticket -> unit

val is_released : ticket -> bool

(** Force the highest pending LSN now and release every covered ticket. *)
val force : t -> unit

(** Release tickets already covered by the durable horizon (after an
    out-of-band force such as a checkpoint), without forcing. *)
val release_durable : t -> unit

(** Drop all pending tickets (crash simulation). *)
val reset : t -> unit

val pp_policy : Format.formatter -> policy -> unit
val policy_to_string : policy -> string
val policy_of_string : string -> (policy, string) result
