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

type event = { at : int; seq : int; run : unit -> unit }

type t = {
  mutable heap : event array;
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

let dummy = { at = 0; seq = 0; run = ignore }

let create () =
  let stats = Stats.create () in
  Bess_obs.Registry.register_stats "sched" stats;
  let t =
    {
      heap = Array.make 64 dummy;
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

(* Strict total order: due time first, scheduling order on ties. *)
let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow t =
  let h = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 h 0 t.size;
  t.heap <- h

let push t e =
  if t.size = Array.length t.heap then grow t;
  let h = t.heap in
  let i = ref t.size in
  t.size <- t.size + 1;
  h.(!i) <- e;
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before h.(!i) h.(parent) then begin
      let tmp = h.(parent) in
      h.(parent) <- h.(!i);
      h.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop t =
  let h = t.heap in
  let min = h.(0) in
  t.size <- t.size - 1;
  h.(0) <- h.(t.size);
  h.(t.size) <- dummy;
  (* Sift down. *)
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && before h.(l) h.(!smallest) then smallest := l;
    if r < t.size && before h.(r) h.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = h.(!smallest) in
      h.(!smallest) <- h.(!i);
      h.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  min

let schedule_at t ~at f =
  let at = Stdlib.max at (Span.now_ns ()) in
  let e = { at; seq = t.next_seq; run = f } in
  t.next_seq <- t.next_seq + 1;
  push t e;
  Stats.bump t.c_scheduled;
  if t.size > Stats.value t.c_heap_peak then Stats.assign t.c_heap_peak t.size

let schedule t ~after f =
  if after < 0 then invalid_arg "Sched.schedule: negative delay";
  schedule_at t ~at:(Span.now_ns () + after) f

let run t =
  let ran = ref 0 in
  while t.size > 0 do
    let e = pop t in
    let now = Span.now_ns () in
    if e.at > now then begin
      Span.advance_ns (e.at - now);
      t.current_lag_ns <- 0
    end
    else begin
      (* The event runs late: simulated work overran its due time. The
         lag is visible to the callback ([current_lag_ns]) so the driver
         can bill queueing delay to the transaction it belongs to. *)
      t.current_lag_ns <- now - e.at;
      if e.at < now then begin
        Stats.bump t.c_late;
        Stats.record t.h_late_ns (now - e.at)
      end
    end;
    e.run ();
    t.current_lag_ns <- 0;
    incr ran;
    t.events_run <- t.events_run + 1;
    Stats.bump t.c_events
  done;
  !ran
