(* Server-side registry for callback locking (section 3, after [17,19]).

   Clients cache pages and their locks across transactions. The server
   remembers, per page, which client nodes hold cached copies and in what
   mode. When a client asks for a mode that conflicts with other clients'
   cached copies, the server must call those copies back before granting.
   The caller (the BeSS server) performs the actual callback messages; this
   module is the bookkeeping: who to call back, and registry maintenance
   when callbacks succeed, are refused, or clients disconnect.

   An entry stays once made, even when its holder list empties: the next
   request for the resource finds it in place rather than re-adding it.
   The registry is bounded by the resources ever cached. *)

type client = int

type entry = { mutable cached : (client * Lock_mode.t) list }

module Resource_tbl = Lock_mgr.Resource_tbl

type t = { table : entry Resource_tbl.t }

let create () = { table = Resource_tbl.create 256 }

let entry t r =
  match Resource_tbl.find t.table r with
  | e -> e
  | exception Not_found ->
      let e = { cached = [] } in
      Resource_tbl.add t.table r e;
      e

let cached_mode t ~client r =
  match Resource_tbl.find_opt t.table r with
  | None -> None
  | Some e -> Lock_mode.holder_mode client e.cached

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
  let e = entry t r in
  if conflicts client mode e.cached then
    `Callback_needed
      (List.filter_map
         (fun ((c, _) as h) -> if conflicting client mode h then Some c else None)
         e.cached)
  else begin
    let prior = Lock_mode.holder_mode client e.cached in
    let mode' = match prior with Some m -> Lock_mode.sup m mode | None -> mode in
    e.cached <- (client, mode') :: Lock_mode.remove_holder client e.cached;
    `Granted
  end

(* The server completed a callback: the client dropped its cached copy. *)
let dropped t ~client r =
  match Resource_tbl.find t.table r with
  | e -> e.cached <- Lock_mode.remove_holder client e.cached
  | exception Not_found -> ()

(* The client downgraded (e.g. X -> S after a writing txn ended). *)
let downgraded t ~client r mode =
  let e = entry t r in
  e.cached <- (client, mode) :: Lock_mode.remove_holder client e.cached

(* Client disconnect: purge everything it cached. *)
let forget_client t ~client =
  Resource_tbl.iter (fun _ e -> e.cached <- Lock_mode.remove_holder client e.cached) t.table
