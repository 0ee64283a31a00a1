(* The two-level clock for the shared cache (section 4.2).

   In shared-memory mode a cache slot may be mapped by several processes,
   so the slot behind one process's protected frame "cannot be unilaterally
   replaced because it may being accessed by other processes". BeSS keeps a
   counter per cache slot -- the number of processes that can access the
   slot -- incremented when a process maps it.

   Level 1 runs per process over its virtual frames, like the
   copy-on-access clock except that protected frames are made *invalid*
   and the slot counter is decremented.

   Level 2 runs over cache slots and treats the counter as the
   recently-used indication: a slot whose counter has reached zero (no
   process has re-touched it through a whole level-1 revolution) is the
   victim. *)

type proc_state = {
  states : State_clock.state array;
  vslots : int array; (* backing slot per vframe; -1 = none *)
  mutable hand : int;
}

type t = {
  procs : proc_state array;
  counters : int array; (* per cache slot: processes able to access it *)
  mutable hand2 : int;
  protect : proc:int -> vframe:int -> unit;
  invalidate : proc:int -> vframe:int -> unit;
  stats : Bess_util.Stats.t;
}

let create ~n_procs ~n_vframes ~n_slots ~protect ~invalidate =
  let stats = Bess_util.Stats.create () in
  Bess_obs.Registry.register_stats "two_level" stats;
  {
    procs =
      Array.init n_procs (fun _ ->
          { states = Array.make n_vframes State_clock.Invalid;
            vslots = Array.make n_vframes (-1);
            hand = 0 });
    counters = Array.make n_slots 0;
    hand2 = 0;
    protect;
    invalidate;
    stats;
  }

let counter t ~slot = t.counters.(slot)
let state t ~proc ~vframe = t.procs.(proc).states.(vframe)

(* Process [proc] maps [vframe] onto [slot]: the counter gains a reader. *)
let map t ~proc ~vframe ~slot =
  let p = t.procs.(proc) in
  (match p.states.(vframe) with
  | Invalid -> ()
  | Protected | Accessible ->
      invalid_arg "Two_level.map: vframe already mapped (unmap first)");
  p.states.(vframe) <- Accessible;
  p.vslots.(vframe) <- slot;
  t.counters.(slot) <- t.counters.(slot) + 1

(* Access fault on a protected frame: the page is hot for this process.
   Re-granting access restores the counter contribution removed by a
   level-1 invalidation only if the frame was still protected (counter
   contribution intact). *)
let access t ~proc ~vframe =
  let p = t.procs.(proc) in
  match p.states.(vframe) with
  | Protected ->
      p.states.(vframe) <- Accessible;
      Bess_util.Stats.incr t.stats "two_level.regrants"
  | Accessible -> ()
  | Invalid -> invalid_arg "Two_level.access: frame is invalid"

(* Explicit unmap (process drops a page, or the page was evicted): the
   counter loses this process. *)
let unmap t ~proc ~vframe =
  let p = t.procs.(proc) in
  (match p.states.(vframe) with
  | Invalid -> ()
  | Protected | Accessible ->
      let slot = p.vslots.(vframe) in
      t.counters.(slot) <- t.counters.(slot) - 1;
      t.invalidate ~proc ~vframe);
  p.states.(vframe) <- State_clock.Invalid;
  p.vslots.(vframe) <- -1

(* One full level-1 revolution for [proc]: accessible -> protected
   (revoke access), protected -> invalid (decrement slot counter). *)
let level1_sweep t ~proc =
  let p = t.procs.(proc) in
  let n = Array.length p.states in
  for _ = 1 to n do
    let vframe = p.hand in
    p.hand <- (p.hand + 1) mod n;
    match p.states.(vframe) with
    | State_clock.Invalid -> ()
    | State_clock.Accessible ->
        p.states.(vframe) <- Protected;
        t.protect ~proc ~vframe;
        Bess_util.Stats.incr t.stats "two_level.protects"
    | State_clock.Protected ->
        let slot = p.vslots.(vframe) in
        p.states.(vframe) <- Invalid;
        p.vslots.(vframe) <- -1;
        t.counters.(slot) <- t.counters.(slot) - 1;
        t.invalidate ~proc ~vframe;
        Bess_util.Stats.incr t.stats "two_level.invalidates"
  done

(* Level 2: sweep cache slots for one with counter zero. When a full
   revolution finds none, drive every process's level-1 clock and retry;
   three rounds guarantee a victim unless everything is pinned or hot. *)
let choose_victim t ~can_evict =
  let n_slots = Array.length t.counters in
  let sweep_slots () =
    let found = ref None in
    (try
       for _ = 1 to n_slots do
         let slot = t.hand2 in
         t.hand2 <- (t.hand2 + 1) mod n_slots;
         if t.counters.(slot) = 0 && can_evict slot then begin
           found := Some slot;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  in
  let rec rounds k =
    if k >= 3 then None
    else
      match sweep_slots () with
      | Some slot ->
          Bess_util.Stats.incr t.stats "two_level.victims";
          Some slot
      | None ->
          for proc = 0 to Array.length t.procs - 1 do
            level1_sweep t ~proc
          done;
          rounds (k + 1)
  in
  rounds 0

(* Invariant for property tests: each counter equals the number of
   processes with a non-invalid frame backed by that slot. *)
let check_invariants t =
  let expect = Array.make (Array.length t.counters) 0 in
  Array.iter
    (fun p ->
      Array.iteri
        (fun vframe state ->
          match state with
          | State_clock.Invalid -> ()
          | State_clock.Protected | State_clock.Accessible ->
              let slot = p.vslots.(vframe) in
              if slot < 0 then failwith "mapped frame without slot";
              expect.(slot) <- expect.(slot) + 1)
        p.states)
    t.procs;
  Array.iteri
    (fun slot c ->
      if c <> t.counters.(slot) then
        failwith (Printf.sprintf "slot %d counter %d, expected %d" slot t.counters.(slot) c))
    expect
