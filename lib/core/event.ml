(* Primitive events and hook functions (section 2.4).

   "Programmers have controlled access to a number of entry points in the
   system via the notion of primitive events and hook functions. BeSS
   traps primitive events as they occur and causes the associated hooks to
   be executed." Hooks must be registered before persistent data is
   touched; several hooks may be attached to one event and run in
   registration order.

   The payload carries enough context for the documented uses: counting
   commits, fixing hidden pointers after a segment fault (Ode), reacting
   to replacements and deadlocks, observing protection violations. The
   compression hooks for large objects are separate, data-transforming
   hooks (see {!Bess_largeobj.Lob.set_codec}); these here are observers
   that may also mutate freshly faulted data. *)

type t =
  | Db_open of { db : int }
  | Db_close of { db : int }
  | Slotted_fault of { seg : int }
  | Data_fault of { seg : int }
  | Write_fault of { seg : int; addr : int }
  | Segment_replacement of { area : int; page : int }
  | Lock_acquired of { txn : int; resource : Bess_lock.Lock_mgr.resource }
  | Txn_begin of { txn : int }
  | Txn_commit of { txn : int }
  | Txn_abort of { txn : int }
  | Deadlock of { txn : int }
  | Protection_violation of { addr : int; write : bool }

(* Kind names in constructor order; [index] is the position. *)
let kinds =
  [| "db_open"; "db_close"; "slotted_fault"; "data_fault"; "write_fault";
     "segment_replacement"; "lock_acquired"; "txn_begin"; "txn_commit"; "txn_abort";
     "deadlock"; "protection_violation" |]

let index = function
  | Db_open _ -> 0
  | Db_close _ -> 1
  | Slotted_fault _ -> 2
  | Data_fault _ -> 3
  | Write_fault _ -> 4
  | Segment_replacement _ -> 5
  | Lock_acquired _ -> 6
  | Txn_begin _ -> 7
  | Txn_commit _ -> 8
  | Txn_abort _ -> 9
  | Deadlock _ -> 10
  | Protection_violation _ -> 11

let kind e = kinds.(index e)

(* The payload as key/value pairs, enough to replay a fault wave or
   deadlock sequence from the instants alone. Rendered only while a span
   collector is installed. *)
let attrs = function
  | Db_open { db } | Db_close { db } -> [ ("db", string_of_int db) ]
  | Slotted_fault { seg } | Data_fault { seg } -> [ ("seg", string_of_int seg) ]
  | Write_fault { seg; addr } -> [ ("seg", string_of_int seg); ("addr", string_of_int addr) ]
  | Segment_replacement { area; page } ->
      [ ("area", string_of_int area); ("page", string_of_int page) ]
  | Lock_acquired { txn; resource } ->
      [ ("txn", string_of_int txn);
        ("resource", Fmt.str "%a" Bess_lock.Lock_mgr.pp_resource resource) ]
  | Txn_begin { txn } | Txn_commit { txn } | Txn_abort { txn } | Deadlock { txn } ->
      [ ("txn", string_of_int txn) ]
  | Protection_violation { addr; write } ->
      [ ("addr", string_of_int addr); ("access", if write then "write" else "read") ]

let pp ppf e = Fmt.string ppf (kind e)

(* Hooks by kind [index]. *)
type hooks = (t -> unit) Queue.t array

let hooks_create () = Array.map (fun _ -> Queue.create ()) kinds

(* The [index] of a kind name; a name no event has never fires. *)
let index_of_kind event =
  let rec go i =
    if i = Array.length kinds then None
    else if String.equal kinds.(i) event then Some i
    else go (i + 1)
  in
  go 0

(* Register [f] for events whose {!kind} equals [event]. A queue keeps
   registration order with constant-time insertion (the old [!l @ [f]]
   was quadratic in the number of hooks on one event). *)
let register h ~event f =
  match index_of_kind event with Some i -> Queue.add f h.(i) | None -> ()

(* A fresh queue rather than [Queue.clear], so a [fire] already walking
   the old one finishes it. *)
let clear h ~event =
  match index_of_kind event with Some i -> h.(i) <- Queue.create () | None -> ()

(* Fire an event: record it as an instant if a span collector is
   installed, then run every hook registered for its kind, in order.
   Without a collector nothing is allocated. *)
let fire h e =
  let i = index e in
  if Bess_obs.Span.enabled () then Bess_obs.Span.instant ~attrs:(attrs e) kinds.(i);
  let q = h.(i) in
  if not (Queue.is_empty q) then Queue.iter (fun f -> f e) q
