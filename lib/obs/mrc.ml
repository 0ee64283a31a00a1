(* Online miss-ratio-curve estimation from spatially-sampled reuse
   distances (SHARDS: "SHARDS: Spatially Hashed Approximate Reuse
   Distance Sampling" — Waldspurger et al., FAST'15).

   The classic Mattson stack algorithm computes, for every access, the
   LRU stack distance: how many *distinct* keys were touched since the
   previous access to this key. An access with stack distance d hits in
   any LRU cache of at least d slots, so the histogram of distances IS
   the miss-ratio curve at every size simultaneously. Tracking every
   access is too expensive to leave on in production; SHARDS keeps the
   curve online by filtering on a hash of the key: a key is tracked iff
   [mix key mod 2^rate_bits = 0], i.e. with probability R = 2^-rate_bits.
   Because the filter is a pure function of the key, every access to a
   tracked key is seen, so distances within the sampled universe are
   exact — and the sampled universe is an unbiased 1/R-scale model of
   the full one: a sampled stack distance d estimates a true distance
   d/R. The memory footprint is O(sampled keys), not O(keys).

   The sampled LRU stack is a hash table from key to a monotonically
   increasing position, plus a Fenwick tree marking which positions are
   live (the most recent position of each tracked key). The stack
   distance of a reuse at position p is then

       live - prefix(p) + 1

   (the number of tracked keys touched after p, plus the key itself) —
   one O(log cap) tree probe per sampled access. When the position space
   fills, positions are compacted in order and the tree rebuilt; the new
   capacity leaves 4x headroom over the live count, so compaction is
   amortized O(log) per access.

   Distances are recorded by *sampled* depth: an exact per-depth array
   up to {!max_exact}, log2 buckets beyond. A cache of C slots holds the
   top C stack positions, i.e. sampled depth up to C*R — so the
   predicted hit rate at size C sums sampled depths up to [C asr
   rate_bits] and divides by the sampled access count. The estimate
   applies the SHARDS-adj correction: the deviation of the actual
   sampled-access count from its expectation [n_total * R] is attributed
   to depth 1, which removes the systematic bias of small samples.

   [rate_bits = 0] disables sampling (every access tracked, distances
   exact) — the unit tests compare that mode against a brute-force
   Mattson stack. Everything here is deterministic: same access
   sequence, same curve, byte for byte. *)

type t = {
  rate_bits : int;
  sample_mask : int; (* 2^rate_bits - 1; sampled iff mix key land mask = 0 *)
  pos : (int, int) Hashtbl.t; (* key -> live position, 1-based *)
  mutable fen : int array; (* Fenwick tree over positions 1..cap *)
  mutable cap : int;
  mutable next_pos : int;
  mutable live : int; (* tracked keys = marked positions *)
  exact : int array; (* reuse count by sampled depth, 1..max_exact-1 *)
  overflow : int array; (* reuse count by log2 of sampled depth *)
  mutable n_total : int; (* all accesses, sampled or not *)
  mutable n_sampled : int;
  mutable n_cold : int; (* sampled first touches: infinite distance *)
}

(* Exact depths cover caches up to max_exact * 2^rate_bits pages; deeper
   reuses land in log2 buckets (interpolated at query time). *)
let max_exact = 1 lsl 15

(* splitmix64 finalizer: decorrelates the sample filter from any
   structure in the key encoding (areas, sequential page numbers). *)
let mix k =
  let z =
    let open Int64 in
    let z = of_int k in
    let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
    let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
    to_int (logxor z (shift_right_logical z 33))
  in
  z land max_int

let create ?(rate_bits = 4) () =
  if rate_bits < 0 || rate_bits > 20 then invalid_arg "Mrc.create: rate_bits out of range";
  {
    rate_bits;
    sample_mask = (1 lsl rate_bits) - 1;
    pos = Hashtbl.create 1024;
    fen = Array.make 1025 0;
    cap = 1024;
    next_pos = 1;
    live = 0;
    exact = Array.make max_exact 0;
    overflow = Array.make 62 0;
    n_total = 0;
    n_sampled = 0;
    n_cold = 0;
  }

let rate_bits t = t.rate_bits
let n_total t = t.n_total
let n_sampled t = t.n_sampled
let tracked_keys t = t.live

let fen_add t i v =
  let i = ref i in
  while !i <= t.cap do
    t.fen.(!i) <- t.fen.(!i) + v;
    i := !i + (!i land - !i)
  done

let fen_prefix t i =
  let s = ref 0 and i = ref i in
  while !i > 0 do
    s := !s + t.fen.(!i);
    i := !i - (!i land - !i)
  done;
  !s

(* Renumber live positions 1..live in stack order and rebuild the tree
   with 4x headroom, so the next compaction is >= 3*live accesses away. *)
let compact t =
  let entries = Hashtbl.fold (fun k p acc -> (p, k) :: acc) t.pos [] in
  let entries = List.sort compare entries in
  let cap = Stdlib.max 1024 (4 * Stdlib.max 1 t.live) in
  t.cap <- cap;
  t.fen <- Array.make (cap + 1) 0;
  Hashtbl.reset t.pos;
  t.next_pos <- 1;
  t.live <- List.length entries;
  List.iter
    (fun (_, k) ->
      Hashtbl.replace t.pos k t.next_pos;
      fen_add t t.next_pos 1;
      t.next_pos <- t.next_pos + 1)
    entries

let log2_floor d =
  let b = ref 0 and d = ref d in
  while !d > 1 do
    incr b;
    d := !d asr 1
  done;
  !b

let record t depth =
  if depth < max_exact then t.exact.(depth) <- t.exact.(depth) + 1
  else
    let b = log2_floor depth in
    t.overflow.(b) <- t.overflow.(b) + 1

let access t key =
  t.n_total <- t.n_total + 1;
  if mix key land t.sample_mask = 0 then begin
    t.n_sampled <- t.n_sampled + 1;
    (match Hashtbl.find_opt t.pos key with
    | Some p ->
        record t (t.live - fen_prefix t p + 1);
        fen_add t p (-1);
        (* Drop the stale binding before any compaction below rebuilds
           from the table — a dead position must not be resurrected. *)
        Hashtbl.remove t.pos key;
        t.live <- t.live - 1
    | None -> t.n_cold <- t.n_cold + 1);
    if t.next_pos > t.cap then compact t;
    Hashtbl.replace t.pos key t.next_pos;
    fen_add t t.next_pos 1;
    t.next_pos <- t.next_pos + 1;
    t.live <- t.live + 1
  end

(* Sampled reuses at depth <= limit, whole exact prefix plus linear
   interpolation inside any straddled log2 bucket. *)
let reuses_within t limit =
  let acc = ref 0 in
  for d = 1 to Stdlib.min limit (max_exact - 1) do
    acc := !acc + t.exact.(d)
  done;
  Array.iteri
    (fun b c ->
      if c > 0 then begin
        let lo = 1 lsl b and hi = (1 lsl (b + 1)) - 1 in
        if hi <= limit then acc := !acc + c
        else if lo <= limit then acc := !acc + (c * (limit - lo + 1) / (hi - lo + 1))
      end)
    t.overflow;
  !acc

let predicted_hit_rate t ~size =
  if size <= 0 then 0.0
  else begin
    let limit = Stdlib.max 1 (size asr t.rate_bits) in
    let hits = reuses_within t limit in
    (* SHARDS-adj: credit the sampling deviation E[n_sampled] - n_sampled
       to depth 1, normalizing by the expected sample count. *)
    let expected = t.n_total asr t.rate_bits in
    let adj = expected - t.n_sampled in
    let hits, denom =
      if expected > 0 then (hits + adj, expected) else (hits, t.n_sampled)
    in
    if denom <= 0 then 0.0
    else Stdlib.min 1.0 (Stdlib.max 0.0 (float_of_int hits /. float_of_int denom))
  end

let curve t ~max_size =
  let rec go size acc =
    if size > max_size then List.rev acc
    else go (size * 2) ((size, predicted_hit_rate t ~size) :: acc)
  in
  go 1 []

let json_of ?(max_size = 1 lsl 20) t =
  Json.Obj
    [ ("rate_bits", Json.int t.rate_bits); ("accesses", Json.int t.n_total);
      ("sampled", Json.int t.n_sampled); ("cold", Json.int t.n_cold);
      ("tracked_keys", Json.int t.live);
      ( "curve",
        Json.Arr
          (List.map
             (fun (size, rate) ->
               Json.Obj [ ("size", Json.int size); ("hit_pct", Json.fixed 2 (100.0 *. rate)) ])
             (curve t ~max_size)) ) ]

let fingerprint t =
  Bess_util.Crc32.to_int (Bess_util.Crc32.string (Json.to_string (json_of t)))
