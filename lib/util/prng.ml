(* Deterministic pseudo-random number generation for workloads and tests.

   Benchmarks must be reproducible run-to-run, so every workload generator in
   this repository draws from an explicitly seeded splitmix64 stream rather
   than [Random]. Splitmix64 passes BigCrush and is trivially splittable,
   which lets independent workload phases own independent streams. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* One splitmix64 step: golden-gamma increment then two xor-shift-multiply
   finalisation rounds. *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = Int64.to_int (next_int64 t) in
  { state = Int64.of_int seed }

(* Non-negative 62-bit int. *)
let next_int t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  next_int t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 bits of mantissa. *)
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bits /. 9007199254740992.0

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.chr (int t 256))
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Zipf-distributed ranks in [0, n), computed by inverting the generalised
   harmonic CDF. The CDF table costs O(n) to build, so it is built once
   and shared; any number of streams draw through it. *)
type zipf_table = float array

let zipf_table ~n ~theta =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  cdf

let zipf_draw t cdf =
  let n = Array.length cdf in
  let u = float t *. cdf.(n - 1) in
  (* Binary search for the first index whose cumulative weight covers u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (n - 1)

let zipf t ~n ~theta =
  let cdf = zipf_table ~n ~theta in
  fun () -> zipf_draw t cdf
