(* Discrete-event scheduler: a binary min-heap of (tick, seq, closure).

   The heap is an array-backed implicit tree ordered by (at, seq) so
   equal-tick events pop in scheduling order — the tie-break that makes
   the whole simulation deterministic. No Stdlib priority queue is
   stable, and stability is the point, so the heap is hand-rolled.

   The scheduler owns time only in one direction: before running an
   event it advances the process-wide Span clock to the event's due
   time. Simulated work inside an event (log forces, wire hops) advances
   the same clock further, so later events may find their due time
   already past — they run immediately, late, like an interrupt handler
   that was masked. *)

module Span = Bess_obs.Span
module Stats = Bess_util.Stats

(* The heap is three parallel arrays: entry [i]'s due time, sequence
   number and closure. The ints sit unboxed, so comparing two entries
   reads no closure, and moving an entry writes one pointer. *)
type t = {
  mutable ats : int array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  mutable events_run : int;
  mutable current_lag_ns : int; (* lateness of the event running right now *)
  stats : Stats.t;
  c_scheduled : Stats.counter;
  c_heap_peak : Stats.counter;
  c_events : Stats.counter;
  c_late : Stats.counter;
  h_late_ns : Stats.hist;
}

let create () =
  let stats = Stats.create () in
  Bess_obs.Registry.register_stats "sched" stats;
  let t =
    {
      ats = Array.make 64 0;
      seqs = Array.make 64 0;
      runs = Array.make 64 ignore;
      size = 0;
      next_seq = 0;
      events_run = 0;
      current_lag_ns = 0;
      stats;
      c_scheduled = Stats.counter stats "sched.scheduled";
      c_heap_peak = Stats.counter stats "sched.heap_peak";
      c_events = Stats.counter stats "sched.events";
      c_late = Stats.counter stats "sched.late_events";
      h_late_ns = Stats.hist stats "sched.late_ns";
    }
  in
  Bess_obs.Registry.register_gauge "sched" "sched.pending_events" (fun () -> t.size);
  t

let stats t = t.stats
let pending t = t.size
let events_run t = t.events_run
let current_lag_ns t = t.current_lag_ns

(* Strict total order: due time first, scheduling order on ties. The
   annotations keep the comparison on ints, not the polymorphic one. *)
let before (at : int) (seq : int) (at' : int) (seq' : int) = at < at' || (at = at' && seq < seq')

let grow t =
  let n = 2 * Array.length t.ats in
  let extend a fill =
    let a' = Array.make n fill in
    Array.blit a 0 a' 0 t.size;
    a'
  in
  t.ats <- extend t.ats 0;
  t.seqs <- extend t.seqs 0;
  t.runs <- extend t.runs ignore

(* Copy the entry at [src] into slot [dst]. *)
let move t ~src ~dst =
  t.ats.(dst) <- t.ats.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.runs.(dst) <- t.runs.(src)

(* Sift a hole at [i] up past every parent after the entry [(at, seq)];
   the slot where it stops is the entry's. *)
let rec sift_up t i at seq =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    if before at seq t.ats.(parent) t.seqs.(parent) then begin
      move t ~src:parent ~dst:i;
      sift_up t parent at seq
    end
    else i

(* Sift a hole at [i] down past every smaller child than [(at, seq)]. *)
let rec sift_down t i at seq =
  let l = (2 * i) + 1 in
  if l >= t.size then i
  else
    let r = l + 1 in
    let c = if r < t.size && before t.ats.(r) t.seqs.(r) t.ats.(l) t.seqs.(l) then r else l in
    if before t.ats.(c) t.seqs.(c) at seq then begin
      move t ~src:c ~dst:i;
      sift_down t c at seq
    end
    else i

let push t at seq f =
  if t.size = Array.length t.ats then grow t;
  let i = sift_up t t.size at seq in
  t.size <- t.size + 1;
  t.ats.(i) <- at;
  t.seqs.(i) <- seq;
  t.runs.(i) <- f

(* Drop the root: the last entry fills the hole it leaves. *)
let pop t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let at = t.ats.(last) and seq = t.seqs.(last) and f = t.runs.(last) in
    let i = sift_down t 0 at seq in
    t.ats.(i) <- at;
    t.seqs.(i) <- seq;
    t.runs.(i) <- f
  end;
  t.runs.(last) <- ignore

let schedule_at t ~at f =
  let at = Stdlib.max at (Span.now_ns ()) in
  push t at t.next_seq f;
  t.next_seq <- t.next_seq + 1;
  Stats.bump t.c_scheduled;
  if t.size > Stats.value t.c_heap_peak then Stats.assign t.c_heap_peak t.size

let schedule t ~after f =
  if after < 0 then invalid_arg "Sched.schedule: negative delay";
  schedule_at t ~at:(Span.now_ns () + after) f

let run t =
  let ran = ref 0 in
  while t.size > 0 do
    let at = t.ats.(0) and f = t.runs.(0) in
    pop t;
    let now = Span.now_ns () in
    if at > now then begin
      Span.advance_ns (at - now);
      t.current_lag_ns <- 0
    end
    else begin
      (* The event runs late: simulated work overran its due time. The
         lag is visible to the callback ([current_lag_ns]) so the driver
         can bill queueing delay to the transaction it belongs to. *)
      t.current_lag_ns <- now - at;
      if at < now then begin
        Stats.bump t.c_late;
        Stats.record t.h_late_ns (now - at)
      end
    end;
    f ();
    t.current_lag_ns <- 0;
    incr ran;
    t.events_run <- t.events_run + 1;
    Stats.bump t.c_events
  done;
  !ran
