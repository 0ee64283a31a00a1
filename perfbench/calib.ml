(* Calibrated wall time.

   On a shared machine a CPU's speed moves by up to half for seconds at a
   time (a fixed integer loop took 0.09-0.17 s per 10^8 iterations within
   one minute on a 2-vCPU Xeon at 2.1 GHz shared with other tenants), and
   process CPU time moves with it. A run timed on the raw wall clock
   therefore measures the neighbours as much as the program. So every
   wall-clock metric is calibrated: a fixed, non-allocating integer loop
   is timed between pieces of work, and each piece's wall time is scaled
   by the loop's nominal time over its measured time — the time the piece
   would have taken on a CPU that runs the loop at its nominal speed of
   one iteration per nanosecond. The loop is the benchmark's own code, so
   no change to lib/ moves it; a change that makes the program slower
   still reads slower. Raw wall times are printed beside the metrics. *)

let now = Unix.gettimeofday
let iters = 3_000_000

let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc lxor (i * 0x9E3779B1)
  done;
  !acc

(* The CPU's speed now, relative to nominal: the best of two passes of
   the loop, so an interrupt in one pass does not count. *)
let scale () =
  let pass () =
    let t0 = now () in
    ignore (Sys.opaque_identity (spin (Sys.opaque_identity iters)));
    now () -. t0
  in
  let t = Float.min (pass ()) (pass ()) in
  float_of_int iters *. 1e-9 /. Float.max t 1e-9

(* [f ()] with its calibrated and raw wall times, at the mean of the
   speeds measured just before and just after it. A phase whose time
   moves less than the loop's — one long pass bound by memory traffic and
   the major GC, such as a restart or a set-up — takes the scale to the
   power [elasticity]: the share of the loop's slowdown it feels. *)
let timed ?(elasticity = 1.0) f =
  let s0 = scale () in
  let t0 = now () in
  let r = f () in
  let raw = now () -. t0 in
  (r, raw *. Float.pow ((s0 +. scale ()) /. 2.0) elasticity, raw)

(* A phase timed in segments: each [checkpoint] closes a segment and
   bills its wall time at the mean of the speeds measured at its two ends.
   The measurements themselves are not billed. *)
type meter = {
  mutable seg_t0 : float;
  mutable s_prev : float;
  mutable closed : int;  (** segments closed so far: the open one's index *)
  mutable total : float;  (** calibrated seconds of the closed segments *)
  mutable raw : float;  (** their raw wall seconds *)
  mutable scales : float list;  (** each closed segment's scale, newest first *)
}

let start () =
  let s = scale () in
  { seg_t0 = now (); s_prev = s; closed = 0; total = 0.0; raw = 0.0; scales = [] }

let checkpoint m =
  let w = now () -. m.seg_t0 in
  let s = scale () in
  let k = (m.s_prev +. s) /. 2.0 in
  m.total <- m.total +. (w *. k);
  m.raw <- m.raw +. w;
  m.scales <- k :: m.scales;
  m.closed <- m.closed + 1;
  m.s_prev <- s;
  m.seg_t0 <- now ()

(* Segment [i]'s scale, in checkpoint order. *)
let scales m = Array.of_list (List.rev m.scales)

(* Calibrate raw samples: sample [i] was taken in segment [seg i]. *)
let apply m ~seg raw =
  let k = scales m in
  Array.mapi (fun i x -> x *. k.(seg i)) raw
