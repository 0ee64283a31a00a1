(* Percentiles of raw samples. A tail is reported at the highest
   percentile the sample supports — one with at least ten samples beyond
   it — capped at p99, so a p99 needs a thousand samples and a smaller
   sample reports a lower percentile rather than its few largest
   values. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks of a sorted array. *)
let of_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = q /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let percentile xs q = of_sorted (sorted xs) q
let median xs = percentile xs 50.0

(* The highest percentile with at least ten of [n] samples beyond it,
   capped at p99; [None] when no percentile has ten samples beyond. *)
let supported n =
  if n <= 10 then None
  else Some (Float.min 99.0 (100.0 *. float_of_int (n - 10) /. float_of_int n))

(* [(q, value)]: the tail at the supported percentile [q]. A sample too
   small to support any reports its maximum as q = 100. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  match supported n with
  | Some q -> (q, of_sorted a q)
  | None -> (100.0, if n = 0 then 0.0 else a.(n - 1))

(* The percentile of lattice-valued samples (sums of a few fixed costs),
   interpolated within the class of tied values the way grouped data
   are: the class around value v spans v - h/2 .. v + h/2, with h the
   smallest gap between distinct values. A plain percentile of such
   samples sits on the same lattice point for most inputs. *)
let grouped xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let h = ref infinity in
    for i = 1 to n - 1 do
      let d = a.(i) -. a.(i - 1) in
      if d > 0.0 && d < !h then h := d
    done;
    let t = q /. 100.0 *. float_of_int n in
    let v = a.(Stdlib.min (n - 1) (int_of_float t)) in
    if !h = infinity then v
    else begin
      let lo = ref 0 and eq = ref 0 in
      Array.iter (fun x -> if x < v then incr lo else if x = v then incr eq) a;
      v -. (!h /. 2.0) +. (!h *. (t -. float_of_int !lo) /. float_of_int !eq)
    end
  end
