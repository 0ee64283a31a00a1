(* Lock modes and their compatibility/supremum algebra.

   BeSS uses strict two-phase locking (section 3). Pages are the unit the
   virtual-memory machinery detects, but files and objects also get locked
   (intention modes make the hierarchy work, and section 2.3's planned
   object-level locking reuses the same algebra). *)

type t = IS | IX | S | SIX | X

let all = [ IS; IX; S; SIX; X ]

let to_string = function IS -> "IS" | IX -> "IX" | S -> "S" | SIX -> "SIX" | X -> "X"
let pp ppf m = Fmt.string ppf (to_string m)

let compatible a b =
  match (a, b) with
  | IS, (IS | IX | S | SIX) | (IX | S | SIX), IS -> true
  | IX, IX -> true
  | S, S -> true
  | _, _ -> false

(* Least upper bound in the standard lattice: IS < IX,S; IX,S < SIX < X. *)
let sup a b =
  match (a, b) with
  | X, _ | _, X -> X
  | SIX, _ | _, SIX -> SIX
  | IX, S | S, IX -> SIX
  | IX, _ | _, IX -> IX
  | S, _ | _, S -> S
  | IS, IS -> IS

(* [covers held want]: does holding [held] already satisfy a request for
   [want]? True iff sup held want = held. *)
let covers held want = sup held want == held

(* Holder lists, [(id, mode)] pairs: a lock entry's granting
   transactions, a callback entry's caching clients. [List.assoc_opt]
   and [List.remove_assoc] without polymorphic comparison. *)
let rec holder_mode id = function
  | [] -> None
  | (id', m) :: rest -> if id' = id then Some m else holder_mode id rest

let rec remove_holder id = function
  | [] -> []
  | ((id', _) as h) :: rest -> if id' = id then rest else h :: remove_holder id rest
