(* Server-side registry for callback locking (section 3, after [17,19]).

   Clients cache pages and their locks across transactions. The server
   remembers, per page, which client nodes hold cached copies and in what
   mode. When a client asks for a mode that conflicts with other clients'
   cached copies, the server must call those copies back before granting.
   The caller (the BeSS server) performs the actual callback messages; this
   module is the bookkeeping: who to call back, and registry maintenance
   when callbacks succeed, are refused, or clients disconnect.

   Each resource ever cached has one slot, its holder list, in an
   [Int_store] keyed by the packed resource. A slot stays once made,
   even when its holder list empties: the next request for the resource
   finds it in place rather than re-adding it. The registry is bounded
   by the resources ever cached. *)

module Int_store = Bess_util.Int_store

type client = int

(* Each resource's holders, by the packed resource. *)
type t = (client * Lock_mode.t) list Int_store.t

let create () : t = Int_store.create 256

(* [r]'s slot, made on its first request. *)
let slot t (r : Lock_mgr.resource) =
  let i = Int_store.index t (r :> int) in
  if i >= 0 then i
  else begin
    Int_store.add t (r :> int) [];
    Int_store.length t - 1
  end

let cached_mode t ~client (r : Lock_mgr.resource) =
  let i = Int_store.index t (r :> int) in
  if i < 0 then None else Lock_mode.holder_mode client (Int_store.get t i)

(* Whether a holder is another client caching in a mode [mode]
   conflicts with. *)
let conflicting client mode (c, m) = c <> client && not (Lock_mode.compatible mode m)

(* [List.exists (conflicting client mode)] without the closure. *)
let rec conflicts client mode = function
  | [] -> false
  | h :: rest -> conflicting client mode h || conflicts client mode rest

(* A client requests [mode] on [r]. Either it can be granted immediately
   (registry updated), or the listed other clients must first be called
   back (downgraded to nothing for X requests, to S for others). *)
let request t ~client r mode =
  let i = slot t r in
  let cached = Int_store.get t i in
  if conflicts client mode cached then
    `Callback_needed
      (List.filter_map
         (fun ((c, _) as h) -> if conflicting client mode h then Some c else None)
         cached)
  else begin
    let prior = Lock_mode.holder_mode client cached in
    let mode' = match prior with Some m -> Lock_mode.sup m mode | None -> mode in
    Int_store.set t i ((client, mode') :: Lock_mode.remove_holder client cached);
    `Granted
  end

(* The server completed a callback: the client dropped its cached copy. *)
let dropped t ~client (r : Lock_mgr.resource) =
  let i = Int_store.index t (r :> int) in
  if i >= 0 then Int_store.set t i (Lock_mode.remove_holder client (Int_store.get t i))

(* The client downgraded (e.g. X -> S after a writing txn ended). *)
let downgraded t ~client r mode =
  let i = slot t r in
  Int_store.set t i ((client, mode) :: Lock_mode.remove_holder client (Int_store.get t i))

(* Client disconnect: purge everything it cached. *)
let forget_client t ~client =
  for i = 0 to Int_store.length t - 1 do
    Int_store.set t i (Lock_mode.remove_holder client (Int_store.get t i))
  done
