(* Open addressing over one int array. A slot holds a pair packed by
   [Int_map.pack] or [empty]; packed pairs are non-negative, so [-1] is
   never one. The array's length is a power of two and at least twice
   the pairs it holds, so a probe always reaches an empty slot. Nothing
   is ever removed but by [clear], so no tombstones. *)

let empty = -1

type t = { mutable slots : int array; mutable size : int }

let create n =
  let rec pow2 c = if c >= 2 * n then c else pow2 (2 * c) in
  { slots = Array.make (pow2 8) empty; size = 0 }

(* The slot that holds [k], or the empty slot where it would go. *)
let rec probe slots mask k i =
  let s = Array.unsafe_get slots i in
  if s = k || s = empty then i else probe slots mask k ((i + 1) land mask)

let slot slots k =
  let mask = Array.length slots - 1 in
  probe slots mask k (Int_tbl.mix k land mask)

let grow t =
  let old = t.slots in
  let slots = Array.make (2 * Array.length old) empty in
  Array.iter (fun k -> if k <> empty then slots.(slot slots k) <- k) old;
  t.slots <- slots

let add t hi lo =
  let k =
    try Int_map.pack hi lo with Invalid_argument _ -> invalid_arg "Pair_set.add: pair out of range"
  in
  let i = slot t.slots k in
  if t.slots.(i) = empty then begin
    t.slots.(i) <- k;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length t.slots then grow t
  end

let mem t hi lo =
  match Int_map.pack hi lo with
  | k -> t.slots.(slot t.slots k) = k
  | exception Invalid_argument _ -> false

let cardinal t = t.size
let capacity t = Array.length t.slots

let clear t =
  if t.size > 0 then begin
    Array.fill t.slots 0 (Array.length t.slots) empty;
    t.size <- 0
  end
