(* Server-side registry for callback locking (section 3, after [17,19]).

   Clients cache pages and their locks across transactions. The server
   remembers, per page, which client nodes hold cached copies and in what
   mode. When a client asks for a mode that conflicts with other clients'
   cached copies, the server must call those copies back before granting.
   The caller (the BeSS server) performs the actual callback messages; this
   module is the bookkeeping: who to call back, and registry maintenance
   when callbacks succeed, are refused, or clients disconnect. *)

type client = int

type entry = { mutable cached : (client * Lock_mode.t) list }

type t = { table : (Lock_mgr.resource, entry) Hashtbl.t }

let create () = { table = Hashtbl.create 256 }

let entry t r =
  match Hashtbl.find_opt t.table r with
  | Some e -> e
  | None ->
      let e = { cached = [] } in
      Hashtbl.add t.table r e;
      e

let cached_mode t ~client r =
  match Hashtbl.find_opt t.table r with
  | None -> None
  | Some e -> List.assoc_opt client e.cached

(* A client requests [mode] on [r]. Either it can be granted immediately
   (registry updated), or the listed other clients must first be called
   back (downgraded to nothing for X requests, to S for others). *)
let request t ~client r mode =
  let e = entry t r in
  let conflicting =
    List.filter
      (fun (c, m) -> c <> client && not (Lock_mode.compatible mode m))
      e.cached
  in
  if conflicting = [] then begin
    let prior = List.assoc_opt client e.cached in
    let mode' = match prior with Some m -> Lock_mode.sup m mode | None -> mode in
    e.cached <- (client, mode') :: List.remove_assoc client e.cached;
    `Granted
  end
  else `Callback_needed (List.map fst conflicting)

(* The server completed a callback: the client dropped its cached copy. *)
let dropped t ~client r =
  match Hashtbl.find_opt t.table r with
  | None -> ()
  | Some e ->
      e.cached <- List.remove_assoc client e.cached;
      if e.cached = [] then Hashtbl.remove t.table r

(* The client downgraded (e.g. X -> S after a writing txn ended). *)
let downgraded t ~client r mode =
  let e = entry t r in
  e.cached <- (client, mode) :: List.remove_assoc client e.cached

(* Client disconnect: purge everything it cached. *)
let forget_client t ~client =
  let empty = ref [] in
  Hashtbl.iter
    (fun r e ->
      e.cached <- List.remove_assoc client e.cached;
      if e.cached = [] then empty := r :: !empty)
    t.table;
  List.iter (Hashtbl.remove t.table) !empty
