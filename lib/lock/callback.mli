(** Server-side registry for callback locking (section 3, after [17,19]).

    Clients cache pages and locks across transactions; the server
    remembers who caches what. A request that conflicts with other
    clients' cached copies yields the list of clients to call back; the
    transport layer performs the callbacks and reports drops. *)

type client = int

type t

val create : unit -> t

(** Current cached mode of [client] on a resource, if any. *)
val cached_mode : t -> client:client -> Lock_mgr.resource -> Lock_mode.t option

(** A client requests [mode]: either granted immediately (registry
    updated, own entries upgraded), or the listed clients must first be
    called back. *)
val request :
  t -> client:client -> Lock_mgr.resource -> Lock_mode.t ->
  [ `Granted | `Callback_needed of client list ]

(** A callback succeeded: the client dropped its cached copy. *)
val dropped : t -> client:client -> Lock_mgr.resource -> unit

(** The client downgraded its cached mode (X -> S after its writing
    transaction ended). *)
val downgraded : t -> client:client -> Lock_mgr.resource -> Lock_mode.t -> unit

(** Client disconnect: purge everything it cached. *)
val forget_client : t -> client:client -> unit
