(** The chaos torture shared by the bench (E12, E13) and [bessctl chaos]:
    remote clients racing on one scratch page through group commit while
    a fault profile is armed, then a crash, a recovery and a check that
    every acknowledged commit survived. [test_chaos] keeps its own loop
    as the independent oracle. *)

type t = {
  server : Bess.Server.t;
  page : Bess_cache.Page_id.t;  (** the scratch page; client [i] owns bytes [8i..8i+7] *)
  net : Bess.Remote.network;
  fetchers : Bess.Fetcher.t array;
}

(** [create db ~client_base ~n_clients] sets [db]'s server to commit
    through [Group_n 2], seeds a one-page working set with
    {!Driver.seed_working_set}, serves the server on a fresh network and
    opens one remote fetcher per client, with ids [client_base + i]. *)
val create : Bess.Db.t -> client_base:int -> n_clients:int -> t

type acks = {
  acked : int array;         (** last acknowledged value per slot (0 if none) *)
  maybes : int list array;   (** indeterminate values since that ack *)
  n_acked : int;
  n_maybe : int;
}

(** [commit_rounds t ~rounds ~value] runs [rounds] rounds in which client
    [i] writes [value i round] into its slot. A returned barrier is an
    ack (durable by contract); an exception anywhere past commit_begin
    leaves the value indeterminate — the commit point may have been
    passed. A later ack on the slot resolves earlier indeterminates. *)
val commit_rounds : t -> rounds:int -> value:(int -> int -> int) -> acks

type violation = { slot : int; recovered : int; last_ack : int }

(** [lost_after_recovery t acks] crashes and recovers the server, then
    returns, in slot order, every slot holding neither its last ack nor
    one of its open indeterminates. *)
val lost_after_recovery : t -> acks -> violation list
