(** Closed-loop client fleets against the shard ring — the multi-shard
    analogue of {!Bess_sched.Driver}, on the same event heap. Each
    client thinks, runs one global transaction over the wire
    (cross-shard with probability [cross_fraction]) writing one page on
    each involved shard, and thinks again; blocked attempts retry the
    same drawn writes after a jittered backoff from 100 µs. An injected
    coordinator crash ({!Twopc.Crashed}) is handled in-loop: recover,
    re-drive, resolve in-doubt by query, count the attempt
    indeterminate.

    Determinism: per-client splitmix64 streams off [seed], the heap's
    total order, and deterministic rids; [f_fingerprint] folds outcome
    counts with the CRC of every shard's pages, so equal seeds replay
    byte-for-byte. *)

type config = {
  n_clients : int;
  txns_per_client : int;
  cross_fraction : float;  (** probability an attempt spans two shards *)
  zipf_theta : float;      (** page-rank skew within a shard *)
  think_ns : int;
  max_retries : int;       (** blocked attempts retried before giving up *)
  seed : int;
}

val default : config

type result = {
  f_commits : int;
  f_cross_commits : int;
  f_aborts : int;          (** 2PC aborts (no votes / lost votes) *)
  f_give_ups : int;        (** blocked-retry budgets exhausted *)
  f_indeterminate : int;   (** attempts lost to coordinator crashes *)
  f_events : int;
  f_sim_ns : int;
  f_fingerprint : string;  (** outcome counts + working-set CRC *)
}

(** Commits per simulated second. *)
val throughput : result -> float

val run : ?sched:Bess_sched.Sched.t -> Shard.t -> config -> result
