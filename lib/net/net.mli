(** Simulated client/server transport (Figure 2's network).

    Synchronous RPC between registered in-process endpoints, with
    per-message and per-byte costs charged to the simulated clock
    ({!Bess_obs.Span.advance_ns}) and
    full message/byte accounting — the quantities that dominate the
    paper's client/server comparisons. Handlers may issue nested calls
    (a node server forwarding a fetch; a 2PC coordinator contacting
    participants). *)

type ('req, 'resp) handler = src:int -> 'req -> 'resp

type ('req, 'resp) t

(** [create ~req_cost ~resp_cost ()] builds a network whose payload sizes
    are estimated by the given functions. Default costs model a LAN:
    150 µs/message + 10 ns/byte. *)
val create :
  ?per_message_ns:int ->
  ?per_byte_ns:int ->
  req_cost:('req -> int) ->
  resp_cost:('resp -> int) ->
  unit ->
  ('req, 'resp) t

(** Register (or replace) the handler behind endpoint [id]. *)
val register : ('req, 'resp) t -> id:int -> ('req, 'resp) handler -> unit

val unregister : ('req, 'resp) t -> id:int -> unit
val stats : ('req, 'resp) t -> Bess_util.Stats.t

(** Raised on delivery to an unregistered endpoint — after the request
    bytes are accounted (they crossed the wire before bouncing). *)
exception No_such_endpoint of int

(** [Timeout dst]: an injected fault dropped the request or the reply;
    the caller cannot tell which, so a retry must be safe against the
    handler having already run (see the [net.drop_request] /
    [net.drop_reply] / [net.dup] / [net.delay] sites in {!Bess_fault}).
    Never raised when no fault site is armed. *)
exception Timeout of int

(** Synchronous RPC: one request message + one reply message accounted. *)
val call : ('req, 'resp) t -> src:int -> dst:int -> 'req -> 'resp

val messages : ('req, 'resp) t -> int
val bytes : ('req, 'resp) t -> int
