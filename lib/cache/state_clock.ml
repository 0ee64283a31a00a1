(* The BeSS clock for memory-mapped caches (section 4.2, copy-on-access).

   A traditional clock keeps a per-slot reference bit set on every access,
   but a mapped architecture never sees individual accesses. BeSS instead
   drives the clock off the *state of the virtual frame*:

     invalid     access-protected, no cache slot behind it
     protected   access-protected, backed by a slot
     accessible  readable/writable, backed by a slot

   The sweep skips invalid frames, converts accessible frames to protected
   (revoking access -- the analogue of clearing the reference bit), and
   picks the slot behind an already-protected frame as the victim: if the
   application had touched it since the last sweep, the access fault would
   have made it accessible again.

   The [protect]/[invalidate] callbacks perform the actual protection
   changes (mprotect in the paper, {!Vmem.set_prot} here); this module is
   pure bookkeeping so it can be tested standalone. *)

type state = Invalid | Protected | Accessible

type t = {
  states : state array;
  slots : int array; (* backing slot per vframe; -1 = none *)
  mutable hand : int;
  protect : int -> unit;
  invalidate : int -> unit;
  stats : Bess_util.Stats.t;
}

let create ~n_vframes ~protect ~invalidate =
  let stats = Bess_util.Stats.create () in
  Bess_obs.Registry.register_stats "state_clock" stats;
  {
    states = Array.make n_vframes Invalid;
    slots = Array.make n_vframes (-1);
    hand = 0;
    protect;
    invalidate;
    stats;
  }

let state t vframe = t.states.(vframe)

(* A page was mapped into [vframe] backed by [slot]; the process can now
   touch it. *)
let map t ~vframe ~slot =
  t.states.(vframe) <- Accessible;
  t.slots.(vframe) <- slot

(* The process faulted on a protected frame: re-grant access. The caller
   performs the mprotect; we record the state transition the fault
   implies. *)
let access t ~vframe =
  match t.states.(vframe) with
  | Protected ->
      t.states.(vframe) <- Accessible;
      Bess_util.Stats.incr t.stats "state_clock.regrants"
  | Accessible -> ()
  | Invalid -> invalid_arg "State_clock.access: frame is invalid"

(* Sweep for a victim. Two full revolutions guarantee a decision: the
   first converts accessible frames to protected, the second finds one
   still protected (untouched since). [can_evict] lets the owner veto
   pinned slots. *)
let sweep_victim t ~can_evict =
  let n = Array.length t.states in
  let rec go steps =
    if steps > 2 * n then None
    else begin
      let vframe = t.hand in
      t.hand <- (t.hand + 1) mod n;
      match t.states.(vframe) with
      | Invalid -> go (steps + 1)
      | Accessible ->
          t.states.(vframe) <- Protected;
          t.protect vframe;
          Bess_util.Stats.incr t.stats "state_clock.protects";
          go (steps + 1)
      | Protected ->
          let slot = t.slots.(vframe) in
          if can_evict slot then begin
            t.states.(vframe) <- Invalid;
            t.slots.(vframe) <- -1;
            t.invalidate vframe;
            Bess_util.Stats.incr t.stats "state_clock.victims";
            Some (vframe, slot)
          end
          else go (steps + 1)
    end
  in
  go 0
