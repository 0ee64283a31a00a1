(* Open addressing with linear probing over one flat array of slots,
   each two cells wide: a key, then its value. A slot's key is a key or
   [free]; keys are non-negative, so [-1] is never one. A lookup reads
   the key and the value from one cache line. The slots are a power of
   two and at least twice the bindings, so a probe always ends at a free
   slot. Removal shifts the later bindings of the probe run back into
   the hole (no tombstones), so no run is ever cut by a stale free
   slot. *)

let free = -1

(* [hi lsr 30 = 0] and [lo lsr 32 = 0] also refuse negatives, whose
   logical shift keeps the sign bit. *)
let pack hi lo =
  if hi lsr 30 <> 0 || lo lsr 32 <> 0 then invalid_arg "Int_map.pack: pair out of range";
  (hi lsl 32) lor lo

(* Slot [i]'s key is at [2 * i], its value at [2 * i + 1]. *)
type t = { mutable cells : int array; mutable size : int }

let create n =
  let rec pow2 c = if c >= 2 * n then c else pow2 (2 * c) in
  { cells = Array.make (2 * pow2 8) free; size = 0 }

let length t = t.size
let capacity t = Array.length t.cells / 2

(* The slot holding [k], else the free slot that ends its probe run.
   Top-level, so that a call allocates no closure. *)
let rec probe cells mask k i =
  let k' = Array.unsafe_get cells (2 * i) in
  if k' = k || k' = free then i else probe cells mask k ((i + 1) land mask)

let slot cells k =
  let mask = (Array.length cells / 2) - 1 in
  probe cells mask k (Int_tbl.mix k land mask)

let find t k =
  if k < 0 then -1
  else
    let i = 2 * slot t.cells k in
    if Array.unsafe_get t.cells i = k then Array.unsafe_get t.cells (i + 1) else -1

let mem t k = k >= 0 && t.cells.(2 * slot t.cells k) = k

let grow t =
  let old = t.cells in
  t.cells <- Array.make (2 * Array.length old) free;
  for i = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * i) in
    if k <> free then begin
      let j = 2 * slot t.cells k in
      t.cells.(j) <- k;
      t.cells.(j + 1) <- old.((2 * i) + 1)
    end
  done

let replace t k v =
  if k < 0 then invalid_arg "Int_map.replace: negative key";
  let i = 2 * slot t.cells k in
  if t.cells.(i) = k then t.cells.(i + 1) <- v
  else begin
    t.cells.(i) <- k;
    t.cells.(i + 1) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > capacity t then grow t
  end

(* Backward-shift deletion from the hole at slot [hole]: each later
   binding of the run moves into the hole when its home slot does not
   lie between the hole and its own slot (cyclically). *)
let rec shift t hole j =
  let m = capacity t - 1 in
  let j = (j + 1) land m in
  let kj = t.cells.(2 * j) in
  if kj = free then t.cells.(2 * hole) <- free
  else if (j - (Int_tbl.mix kj land m)) land m >= (j - hole) land m then begin
    t.cells.(2 * hole) <- kj;
    t.cells.((2 * hole) + 1) <- t.cells.((2 * j) + 1);
    shift t j j
  end
  else shift t hole j

let remove t k =
  if k >= 0 then begin
    let i = slot t.cells k in
    if t.cells.(2 * i) = k then begin
      shift t i i;
      t.size <- t.size - 1
    end
  end

let fold f t acc =
  let acc = ref acc in
  for i = 0 to capacity t - 1 do
    let k = t.cells.(2 * i) in
    if k <> free then acc := f k t.cells.((2 * i) + 1) !acc
  done;
  !acc
