(* Open addressing with linear probing over two flat arrays: a key slot
   holds a key or [free]; keys are non-negative, so [-1] is never one.
   The arrays' length is a power of two and at least twice the bindings,
   so a probe always ends at a free slot. Removal shifts the later
   bindings of the probe run back into the hole (no tombstones), so no
   run is ever cut by a stale free slot. *)

let free = -1

type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

let create n =
  let rec pow2 c = if c >= 2 * n then c else pow2 (2 * c) in
  let cap = pow2 8 in
  { keys = Array.make cap free; vals = Array.make cap 0; size = 0 }

let length t = t.size
let capacity t = Array.length t.keys

(* The slot holding [k], else the free slot that ends its probe run.
   Top-level, so that a call allocates no closure. *)
let rec probe keys mask k i =
  let k' = Array.unsafe_get keys i in
  if k' = k || k' = free then i else probe keys mask k ((i + 1) land mask)

let slot keys k =
  let mask = Array.length keys - 1 in
  probe keys mask k (Int_tbl.mix k land mask)

let find t k =
  if k < 0 then -1
  else
    let i = slot t.keys k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else -1

let mem t k = k >= 0 && t.keys.(slot t.keys k) = k

let grow t =
  let keys = t.keys and vals = t.vals in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n free;
  t.vals <- Array.make n 0;
  Array.iteri
    (fun i k ->
      if k <> free then begin
        let j = slot t.keys k in
        t.keys.(j) <- k;
        t.vals.(j) <- vals.(i)
      end)
    keys

let replace t k v =
  if k < 0 then invalid_arg "Int_map.replace: negative key";
  let i = slot t.keys k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length t.keys then grow t
  end

(* Backward-shift deletion from the hole at [hole]: each later binding
   of the run moves into the hole when its home slot does not lie
   between the hole and its own slot (cyclically). *)
let rec shift t hole j =
  let m = Array.length t.keys - 1 in
  let j = (j + 1) land m in
  let kj = t.keys.(j) in
  if kj = free then t.keys.(hole) <- free
  else if (j - (Int_tbl.mix kj land m)) land m >= (j - hole) land m then begin
    t.keys.(hole) <- kj;
    t.vals.(hole) <- t.vals.(j);
    shift t j j
  end
  else shift t hole j

let remove t k =
  if k >= 0 then begin
    let i = slot t.keys k in
    if t.keys.(i) = k then begin
      shift t i i;
      t.size <- t.size - 1
    end
  end

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i k -> if k <> free then acc := f k t.vals.(i) !acc) t.keys;
  !acc
