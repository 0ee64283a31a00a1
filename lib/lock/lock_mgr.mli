(** The lock table: strict two-phase locking with FIFO wait queues and
    wake-on-release grant handoff.

    Cooperative (non-blocking): {!acquire} returns a verdict; a
    {!release_all} elsewhere grants the maximal compatible FIFO prefix
    of each affected queue *in place* — the lock transfers before any
    new acquirer can barge — and fires the registered wake hook per
    granted transaction, so blocked callers park on the wake instead of
    poll-retrying. Deadlocks are detected either by an exact
    waits-for-graph cycle check or by timeouts on the simulated clock
    (the paper's distributed mechanism): a request re-polled
    {!timeout_ns} or more after it queued gets [`Timeout]. The table
    never advances time or wakes an expired waiter; a parked caller
    keeps its own deadline and re-polls when it fires. *)

(** A lockable resource, packed into one non-negative int: a namespace
    bit (page or object), then an area or database id in [\[0, 2^21)],
    then a page or slot number in [\[0, 2^40)]. Equal resources are
    equal ints, and int order is the order of (namespace, area or
    database, page or slot). *)
type resource = private int

(** Raise [Invalid_argument] if [area] lies outside [\[0, 2^21)] or
    [page] outside [\[0, 2^40)]. *)
val page_resource : area:int -> page:int -> resource

(** Raise [Invalid_argument] if [db] lies outside [\[0, 2^21)] or
    [slot] outside [\[0, 2^40)]. *)
val object_resource : db:int -> slot:int -> resource

(** Whether the resource came from {!page_resource}. *)
val is_page : resource -> bool

(** The area of a page resource, or the database of an object one. *)
val major : resource -> int

(** The page of a page resource, or the slot of an object one. *)
val minor : resource -> int

(** [page(area,page)] or [obj(db,slot)]. *)
val pp_resource : Format.formatter -> resource -> unit

type t

val create : unit -> t

(** Empty the table in place, as after a crash: no lock granted or
    awaited, enqueue order restarted. The stats keep counting and the
    wake hook and grant filter stay installed. *)
val reset : t -> unit

(** Simulated ns a request may wait before the [`Timeout] detector
    declares it deadlocked. *)
val timeout_ns : int

val stats : t -> Bess_util.Stats.t

(** Live waiters across all entries, maintained incrementally (also
    backs the [lock.waiters] gauge). *)
val n_waiters : t -> int

(** Fired once per transaction granted in place by a release (in grant
    order), and once per waiter whose in-place grant the filter vetoed.
    The hook runs inside the releasing call — receivers should only
    note the event (e.g. schedule the parked client's resumption), not
    reenter the lock table. *)
val set_wake_hook : t -> (txn:int -> unit) option -> unit

(** Veto for in-place grants: called before a handoff transfers the
    lock; returning [false] leaves the waiter queued — it keeps its
    FIFO position and is woken immediately so its own re-poll (which
    runs the full callback path) resolves the conflict. The server uses
    this to run callback locking — an in-place grant must not bypass
    other clients' cached-copy conflicts. The filter may run arbitrary
    client callbacks; the scan re-checks state after it. *)
val set_grant_filter : t -> (txn:int -> resource -> Lock_mode.t -> bool) option -> unit

type verdict = [ `Granted | `Blocked | `Deadlock | `Timeout ]

(** Request [mode] on a resource for [txn]. Regrants and upgrades of held
    locks are recognised; fresh requests respect FIFO order so writers
    are not starved. [`Deadlock] is a proven waits-for cycle: this
    transaction should abort. [`Timeout] (timeout detection only, on a
    re-poll at least {!timeout_ns} after the request queued) is
    mere suspicion — the caller may abort-and-retry the transaction,
    where retrying a proven deadlock verbatim would just cycle again. *)
val acquire : ?detect:[ `Graph | `Timeout ] -> t -> txn:int -> resource -> Lock_mode.t -> verdict

(** Current cumulative mode held by [txn], if any. *)
val held_mode : t -> txn:int -> resource -> Lock_mode.t option

(** Does [txn] hold a mode covering [mode]? *)
val holds : t -> txn:int -> resource -> Lock_mode.t -> bool

(** Strict 2PL release at commit/abort; also purges the transaction's
    queued waiters everywhere. Returns the transactions granted in place
    (their wake hooks already fired). *)
val release_all : t -> txn:int -> int list

(** The resources [txn] holds, in the order it first acquired them
    (the order {!release_all} releases them in). *)
val held_resources : t -> txn:int -> resource list

(** Live waiters queued on a resource, in FIFO order, with the
    cumulative mode each one asked for. *)
val waiters : t -> resource -> (int * Lock_mode.t) list

val n_locks : t -> int
