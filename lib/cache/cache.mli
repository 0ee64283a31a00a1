(** The page cache: a fixed pool of page-sized slots (Figure 3), with a
    pluggable replacement policy ({!Clock}, {!State_clock}, {!Two_level}).
    The shared-memory mode's per-slot process counters (section 4.2) are
    {!Two_level}'s. *)

type slot = {
  index : int;
  bytes : Bytes.t;  (** the frame itself; mapped directly by vmem *)
  mutable page : Page_id.t option;
  mutable dirty : bool;
  mutable rec_lsn : int;
      (** recovery LSN: the LSN that took the page from clean to dirty
          (see {!mark_dirty_at}); 0 while clean *)
  mutable pins : int;
}

type t

val create : nslots:int -> page_size:int -> t
val nslots : t -> int
val page_size : t -> int
val stats : t -> Bess_util.Stats.t
val slot : t -> int -> slot

(** Called with (page, bytes) before a dirty page is evicted. *)
val set_writeback : t -> (Page_id.t -> Bytes.t -> unit) -> unit

(** The policy: return an unpinned slot index to evict, or [None]. *)
val set_victim_chooser : t -> (unit -> int option) -> unit

(** Observer of every counted lookup, fired with the page and whether it
    hit — the {!Memx} memory X-ray feeds the MRC/heat sketches from
    here. [None] (the default) keeps the lookup path to a single match:
    with no hook installed the cache behaves bit-identically to a build
    without the hook. *)
val set_access_hook : t -> (Page_id.t -> hit:bool -> unit) option -> unit

(** Lookup counting hits/misses. *)
val lookup : t -> Page_id.t -> slot option

(** Lookup without touching the counters. *)
val find_slot : t -> Page_id.t -> slot option

val n_resident : t -> int

(** Slots holding no page: [nslots t - n_resident t]. While it is 0,
    {!load} goes straight to the replacement policy on a miss. *)
val n_unmapped : t -> int

exception Cache_full

(** [load t page ~fill] returns the (pinned) slot holding [page], calling
    [fill] into the frame on a miss; raises {!Cache_full} when every slot
    is pinned. *)
val load : t -> Page_id.t -> fill:(Bytes.t -> unit) -> slot

val unpin : t -> slot -> unit
val mark_dirty : t -> slot -> unit

(** {!mark_dirty} for a change logged at [lsn]: a clean page takes
    [lsn] as its recovery LSN, which write-back and discard reset. *)
val mark_dirty_at : t -> slot -> lsn:int -> unit

(** Drop a page without writeback (callback revocation, abort purge).
    Raises if pinned. *)
val discard : t -> Page_id.t -> unit

(** Re-key a resident page to a new identity (segment relocation). *)
val rekey : t -> old_page:Page_id.t -> new_page:Page_id.t -> unit

(** Write back every dirty page (checkpoint / shutdown). *)
val flush_all : t -> unit

val iter_resident : t -> (Page_id.t -> slot -> unit) -> unit
val hit_ratio : t -> float
