(* Power-of-two bucketed histograms for latency and size distributions.

   Bucket [i] counts samples in [2^i, 2^(i+1)); bucket 0 also absorbs 0.
   Cheap enough to keep on hot paths, precise enough for the shape-level
   comparisons the experiments report. *)

type t = {
  buckets : int array; (* 63 buckets cover the whole non-negative int range *)
  mutable count : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
}

let create () = { buckets = Array.make 63 0; count = 0; sum = 0; min = max_int; max = 0 }

(* The index of the highest set bit (0 for 0 and 1), found by halving
   the width searched: six steps cover the 63-bit range. *)
let bucket_of v =
  let v = ref v and i = ref 0 in
  if !v lsr 32 <> 0 then (v := !v lsr 32; i := 32);
  if !v lsr 16 <> 0 then (v := !v lsr 16; i := !i + 16);
  if !v lsr 8 <> 0 then (v := !v lsr 8; i := !i + 8);
  if !v lsr 4 <> 0 then (v := !v lsr 4; i := !i + 4);
  if !v lsr 2 <> 0 then (v := !v lsr 2; i := !i + 2);
  if !v lsr 1 <> 0 then i := !i + 1;
  !i

let observe t v =
  let v = if v < 0 then 0 else v in
  let i = bucket_of v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v

let count t = t.count
let sum t = t.sum
let min t = if t.count = 0 then 0 else t.min
let max t = t.max
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let bucket_lower i = if i = 0 then 0 else 1 lsl i
let bucket_upper i = (1 lsl (i + 1)) - 1

(* Percentile over a raw bucket-count array (shared power-of-two
   boundaries), with linear interpolation inside the chosen bucket.
   Power-of-two buckets are wide at the top, so the bare upper bound
   can overstate p99 by ~2x; interpolating by rank within the bucket
   keeps the estimate honest while staying deterministic. *)
let percentile_of_counts counts p =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0
  else begin
    let target = int_of_float (ceil (p /. 100.0 *. float_of_int total)) in
    let target = if target < 1 then 1 else target in
    let before = ref 0 and result = ref 0 in
    (try
       for i = 0 to Array.length counts - 1 do
         let n = counts.(i) in
         if n > 0 && !before + n >= target then begin
           let lower = bucket_lower i and upper = bucket_upper i in
           let pos = target - !before in
           result :=
             lower
             + int_of_float
                 (float_of_int (upper - lower) *. float_of_int pos /. float_of_int n);
           raise Exit
         end;
         before := !before + n
       done
     with Exit -> ());
    !result
  end

let percentile t p =
  if t.count = 0 then 0
  else begin
    let v = percentile_of_counts t.buckets p in
    (* The true extrema are known exactly: clamp the interpolation. *)
    let v = if v < t.min then t.min else v in
    if v > t.max then t.max else v
  end

(* Cumulative (count, inclusive upper bound) pairs for every non-empty
   prefix of the bucket array, Prometheus-style; the last pair always
   carries the full count. *)
let buckets t =
  let acc = ref 0 and out = ref [] in
  let last_nonempty = ref (-1) in
  Array.iteri (fun i n -> if n > 0 then last_nonempty := i) t.buckets;
  for i = 0 to Stdlib.max 0 !last_nonempty do
    acc := !acc + t.buckets.(i);
    out := (bucket_upper i, !acc) :: !out
  done;
  List.rev !out

let raw_buckets t = Array.copy t.buckets

(* Bucketwise sum: exact because both sides share the same boundaries. *)
let merge_into ~dst src =
  Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum;
  if src.count > 0 then begin
    if src.min < dst.min then dst.min <- src.min;
    if src.max > dst.max then dst.max <- src.max
  end

let reset t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.count <- 0;
  t.sum <- 0;
  t.min <- max_int;
  t.max <- 0

let pp ppf t =
  Fmt.pf ppf "n=%d mean=%.1f min=%d p50=%d p99=%d max=%d" t.count (mean t) (min t)
    (percentile t 50.0) (percentile t 99.0) (max t)
