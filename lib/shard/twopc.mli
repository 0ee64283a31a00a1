(** Presumed-abort two-phase commit coordinator.

    Coordinates global transactions across shard servers reached over
    the simulated network, with its own decision log: COMMIT decisions
    are force-logged through group commit before any participant hears
    the verdict, ABORT decisions are never logged (a participant in
    doubt that finds no decision record presumes abort), and
    participant acks retire the decision with an [End] record. All
    prepare/decide messages carry rids that are pure functions of
    (gid, participant index), so retries and re-drives are idempotent
    under the servers' (src,rid) dedup, and an epoch marker forced on
    recovery keeps post-crash gids from aliasing pre-crash traffic.

    Counters live under the registry's ["2pc"] key ([2pc.begins],
    [2pc.prepares_sent], [2pc.votes_yes]/[votes_no]/[vote_lost],
    [2pc.decisions_logged], [2pc.commits], [2pc.aborts], [2pc.acks],
    [2pc.redrives], [2pc.queries], [2pc.presumed_aborts],
    [2pc.coord_crashes], [2pc.recoveries]) plus the [2pc.unresolved]
    gauge; vote collection and decide fan-out are traced as
    [2pc.prepare] / [2pc.decide] spans, which {!Bess_obs.Critpath}
    blames to the [2pc] phase. *)

type t

(** Raised by {!commit} when an injected coordinator crash fires
    ([2pc.coord.crash_undecided] / [2pc.coord.crash_decided], or a
    failed decision force). The caller resolves with {!recover}. *)
exception Crashed

(** [create ~net ()] registers the coordinator on endpoint 900
    answering [Query_decision]. The decision log is in memory and forces
    each decision as it is logged. *)
val create : net:Bess.Remote.network -> unit -> t

(** [query_decision net ~shard ~coordinator ~txn]: participant [shard]
    (an endpoint) asks the coordinator endpoint for the fate of its
    prepared [txn]: [Some true] commit, [Some false] (presumed) abort,
    [None] when no answer came (coordinator down, messages lost). *)
val query_decision :
  Bess.Remote.network -> shard:int -> coordinator:int -> txn:int -> bool option

val id : t -> int
val stats : t -> Bess_util.Stats.t
val log : t -> Bess_wal.Log.t

(** False between {!crash} and {!recover}. *)
val up : t -> bool

(** Commit decisions not yet acked by every participant. *)
val unresolved : t -> int

(** Whether a durable COMMIT decision names [(shard, txn)] — what the
    query endpoint answers; absence means (presumed) abort. Every
    decision counts, including those an End record retired: a
    participant that crashed while prepared may ask after its no-op ack
    let the coordinator log End. The participants are kept in a flat
    set of packed pairs ({!Bess_util.Pair_set}), so a [shard] outside
    [\[0, 2^30)] or a [txn] outside u32 is never named. *)
val has_decision : t -> shard:int -> txn:int -> bool

(** Drive one global transaction: prepare each [(shard, txn, updates)]
    participant, force the commit decision if every vote is yes, then
    fan out decides. A no vote or a lost vote aborts (nothing logged).
    [chaos] runs between vote collection and the decision — the chaos
    harness crashes participants there. Raises {!Crashed} on an
    injected coordinator crash. *)
val commit :
  ?chaos:(unit -> unit) ->
  t ->
  parts:(int * int * Bess.Server.update list) list ->
  [ `Committed | `Aborted ]

(** Re-send every unacked commit decision; returns the number of gids
    still unacked (participants that stayed unreachable). *)
val redrive : t -> int

(** Lose all volatile state (the decision set, the unacked decisions,
    the unforced log tail) and leave the network. The decision set is
    emptied in place and keeps its capacity for {!recover}. *)
val crash : t -> unit

(** Rebuild the decision tables from the log in one walk over its
    frames, decoding nothing: every Decision's participants go into the
    decision set as read in place, and each gid no End record retired
    is remembered with its LSN; only those few Decisions are decoded,
    to rebuild the unacked decisions. Then force an epoch marker, rejoin
    the network and re-drive unacked decisions; returns what {!redrive}
    returned. *)
val recover : t -> int
