(* Simulated client/server transport.

   BeSS runs on a multi-client multi-server network (Figure 2). The
   experiments that compare operation modes and callback locking are
   dominated by *message counts* and *bytes shipped*, so the transport
   models exactly that: synchronous RPC between registered endpoints, with
   per-message and per-byte costs charged to the simulated clock, plus
   full message/byte accounting per endpoint pair.

   Endpoints are in-process: a call executes the destination handler
   directly (handlers may issue nested calls -- a node server forwarding a
   fetch to the owning server, a 2PC coordinator contacting participants).
   Cost parameters default to a LAN-ish ratio: crossing processes is three
   orders of magnitude more expensive than a function call.

   Both tables a delivery reads are int-keyed: handlers by endpoint id,
   and each route's counter by its [(src, dst)] pair packed into one
   int. *)

module Span = Bess_obs.Span
module Stats = Bess_util.Stats
module Int_map = Bess_util.Int_map
module Int_store = Bess_util.Int_store
module Int_tbl = Bess_util.Int_tbl

type ('req, 'resp) handler = src:int -> 'req -> 'resp

type ('req, 'resp) t = {
  handlers : ('req, 'resp) handler Int_tbl.t;
  req_cost : 'req -> int; (* payload size in bytes, for accounting *)
  resp_cost : 'resp -> int;
  per_message_ns : int;
  per_byte_ns : int;
  mutable in_flight : int; (* messages currently being delivered (nested RPCs stack) *)
  stats : Stats.t;
  c_messages : Stats.counter;
  c_bytes : Stats.counter;
  (* One route's labeled [net.calls{src->dst}] handle, made on its first
     message, so a delivery formats no label; keyed by the packed
     route. *)
  routes : Stats.counter Int_store.t;
}

let create ?(per_message_ns = 150_000) ?(per_byte_ns = 10) ~req_cost ~resp_cost () =
  let stats = Stats.create () in
  Bess_obs.Registry.register_stats "net" stats;
  let t =
    {
      handlers = Int_tbl.create 16;
      req_cost;
      resp_cost;
      per_message_ns;
      per_byte_ns;
      in_flight = 0;
      stats;
      c_messages = Stats.counter stats "net.messages";
      c_bytes = Stats.counter stats "net.bytes";
      routes = Int_store.create 16;
    }
  in
  Bess_obs.Registry.register_gauge "net" "net.in_flight" (fun () -> t.in_flight);
  t


(* Bracket one delivery: the synchronous transport means the gauge reads
   as the nesting depth of in-progress messages (a node server
   forwarding a fetch shows 2). *)
let delivering t f =
  t.in_flight <- t.in_flight + 1;
  Fun.protect ~finally:(fun () -> t.in_flight <- t.in_flight - 1) f

(* Re-registering an endpoint replaces its handler: a client that
   attaches to several servers keeps one endpoint whose successive sink
   closures are behaviourally identical. *)
let register t ~id handler = Int_tbl.replace t.handlers id handler

let unregister t ~id = Int_tbl.remove t.handlers id

let stats t = t.stats

exception No_such_endpoint of int

(* A dropped request or reply: the caller cannot tell which, only that
   no answer came back within the (modeled) timeout — exactly the
   at-most-once ambiguity the Remote retry loop exists to resolve. *)
exception Timeout of int (* dst *)

let account t ~bytes =
  let cost = t.per_message_ns + (bytes * t.per_byte_ns) in
  (* Wire time is the dominant cost model: it advances the one simulated
     clock, so net.wire spans get their true width. *)
  Span.advance_ns cost;
  Stats.bump t.c_messages;
  Stats.bump_by t.c_bytes bytes

let route_calls t ~src ~dst =
  let key = Int_map.pack src dst in
  let i = Int_store.index t.routes key in
  if i >= 0 then Int_store.get t.routes i
  else begin
    let c = Stats.labeled_counter t.stats "net.calls" ~label:(Printf.sprintf "%d->%d" src dst) in
    Int_store.add t.routes key c;
    c
  end

let route_attrs src dst =
  if Span.enabled () then [ ("src", string_of_int src); ("dst", string_of_int dst) ] else []

(* A message to a vanished endpoint still crossed the wire before
   bouncing: account it (the bytes were sent; only the answer never
   will be) before raising. *)
let dead_letter t ~bytes dst =
  account t ~bytes;
  Stats.incr t.stats "net.dead_letters";
  raise (No_such_endpoint dst)

(* Fault sites, consulted per delivery (all disarmed by default):
   - [net.delay]: a latency spike — extra multiples of the per-message
     cost on the simulated clock, nothing lost;
   - [net.drop_request]: the request vanishes before the handler runs;
   - [net.dup]: the request is delivered twice (the handler really runs
     twice — server-side dedup is what makes this safe);
   - [net.drop_reply]: the handler ran, its side effects stand, but the
     reply never arrives.
   Both drops surface as [Timeout]: the caller cannot distinguish them,
   which is precisely what forces retries to be exactly-once. *)
let inject_delay t =
  if Bess_fault.Fault.fire "net.delay" then begin
    let spike = (1 + Bess_fault.Fault.draw "net.delay" ~bound:20) * t.per_message_ns in
    Span.advance_ns spike;
    Stats.incr t.stats "net.delays";
    Stats.add t.stats "net.delay_ns" spike
  end

(* Synchronous RPC: one request message, one reply message. The call
   stamps the outgoing request with a net.rpc span whose net.wire
   children separate wire time from the handler's own time. *)
let call t ~src ~dst req =
  match Int_tbl.find t.handlers dst with
  | exception Not_found -> dead_letter t ~bytes:(t.req_cost req) dst
  | handler ->
      Span.with_span ~attrs:(route_attrs src dst) ~kind:"net.rpc" (fun () ->
          delivering t @@ fun () ->
          inject_delay t;
          Span.with_span ~kind:"net.wire" (fun () -> account t ~bytes:(t.req_cost req));
          if Bess_fault.Fault.fire "net.drop_request" then begin
            Stats.incr t.stats "net.dropped_requests";
            raise (Timeout dst)
          end;
          Stats.bump (route_calls t ~src ~dst);
          let resp = Span.with_span ~kind:"net.handler" (fun () -> handler ~src req) in
          let resp =
            if Bess_fault.Fault.fire "net.dup" then begin
              Stats.incr t.stats "net.duplicates";
              Span.with_span ~kind:"net.wire" (fun () -> account t ~bytes:(t.req_cost req));
              Span.with_span ~kind:"net.handler" (fun () -> handler ~src req)
            end
            else resp
          in
          Span.with_span ~kind:"net.wire" (fun () -> account t ~bytes:(t.resp_cost resp));
          if Bess_fault.Fault.fire "net.drop_reply" then begin
            Stats.incr t.stats "net.dropped_replies";
            raise (Timeout dst)
          end;
          resp)

let messages t = Stats.value t.c_messages
let bytes t = Stats.value t.c_bytes
