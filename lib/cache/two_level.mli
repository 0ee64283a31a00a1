(** The two-level clock for the shared cache (section 4.2).

    A slot mapped by several processes "cannot be unilaterally replaced";
    BeSS counts, per cache slot, the processes able to access it. Level 1
    runs per process over its virtual frames like the copy-on-access
    clock, except protected frames become *invalid* and decrement the
    slot counter; level 2 sweeps slots treating a zero counter as
    not-recently-used, selecting it for replacement. *)

type t

val create :
  n_procs:int ->
  n_vframes:int ->
  n_slots:int ->
  protect:(proc:int -> vframe:int -> unit) ->
  invalidate:(proc:int -> vframe:int -> unit) ->
  t

(** Processes currently able to access [slot]. *)
val counter : t -> slot:int -> int

val state : t -> proc:int -> vframe:int -> State_clock.state

(** Process [proc] maps [vframe] onto [slot]: counter gains a reader. *)
val map : t -> proc:int -> vframe:int -> slot:int -> unit

(** Fault on a protected frame: re-grant for this process. *)
val access : t -> proc:int -> vframe:int -> unit

(** Drop a mapping: counter loses this process. *)
val unmap : t -> proc:int -> vframe:int -> unit

(** One full level-1 revolution for one process. *)
val level1_sweep : t -> proc:int -> unit

(** Level 2: find a zero-counter slot, driving level-1 sweeps as needed;
    [None] only when nothing is evictable. *)
val choose_victim : t -> can_evict:(int -> bool) -> int option

(** Raise [Failure] unless every counter equals the number of processes
    with a live frame on that slot. For tests. *)
val check_invariants : t -> unit
