(** The BeSS clock for memory-mapped caches (section 4.2,
    copy-on-access mode).

    A mapped architecture cannot keep per-access reference bits, so the
    clock runs on virtual-frame *states*: invalid (no slot behind the
    frame), protected (slot behind it, access revoked), accessible. The
    sweep converts accessible frames to protected (the analogue of
    clearing the reference bit — one mprotect, performed by the [protect]
    callback) and evicts the slot behind a frame still protected on the
    next visit; a touch on a protected frame faults and re-grants via
    {!access}. *)

type state = Invalid | Protected | Accessible

type t

(** [protect]/[invalidate] perform the actual protection changes (e.g.
    {!Bess_vmem.Vmem.set_prot}); this module is pure bookkeeping. *)
val create : n_vframes:int -> protect:(int -> unit) -> invalidate:(int -> unit) -> t

val state : t -> int -> state

(** A page was mapped into [vframe] backed by [slot]: accessible. *)
val map : t -> vframe:int -> slot:int -> unit

(** Fault on a protected frame: re-grant (the caller does the mprotect). *)
val access : t -> vframe:int -> unit

(** Sweep for a victim; [can_evict] vetoes pinned slots. Two full
    revolutions guarantee a decision when anything is evictable. *)
val sweep_victim : t -> can_evict:(int -> bool) -> (int * int) option
