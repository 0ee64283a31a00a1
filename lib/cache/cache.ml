(* The page cache: a fixed pool of page-sized slots (Figure 3: "the cache
   is viewed as a contiguous sequence of equal length frames, and the size
   of each frame is equal to the page size").

   Replacement policy is pluggable: the cache asks a victim chooser for a
   slot index when full; the chooser must return an unpinned slot. The
   classic clock ({!Clock}), the BeSS frame-state clock ({!State_clock})
   and the two-level clock ({!Two_level}) all drive this interface. The
   shared-memory mode's per-slot process counters (section 4.2: "BeSS
   associates a counter with each cache slot") live in {!Two_level}. *)

module Span = Bess_obs.Span
module Stats = Bess_util.Stats
module Int_map = Bess_util.Int_map

type slot = {
  index : int;
  bytes : Bytes.t;
  mutable page : Page_id.t option;
  mutable dirty : bool;
  mutable rec_lsn : int; (* LSN that took the page from clean to dirty; 0 while clean *)
  mutable page_lsn : int; (* LSN of the last change logged to the page; 0 when unmapped *)
  mutable pins : int;
}

type t = {
  slots : slot array;
  page_size : int;
  map : Int_map.t; (* [Page_id.to_key] page -> slot index; never grows *)
  (* Bit [i mod word_bits] of word [i / word_bits] is set while slot [i]
     is unmapped, so the lowest free slot is a find-first-set away. *)
  unmapped : int array;
  mutable writeback : Page_id.t -> Bytes.t -> lsn:int -> unit;
  mutable choose_victim : unit -> int option;
  mutable n_dirty : int; (* slots with [dirty] set, kept incrementally *)
  (* Observer of every counted lookup (the memory X-ray feeds off this);
     one match on [None] when absent, so the hot path stays free. *)
  mutable access_hook : (Page_id.t -> hit:bool -> unit) option;
  stats : Stats.t;
  c_hits : Stats.counter;
  c_misses : Stats.counter;
  c_loads : Stats.counter;
  c_evictions : Stats.counter;
  c_evict_clean : Stats.counter;
  c_evict_dirty : Stats.counter;
  c_dirty_writebacks : Stats.counter;
  c_discards : Stats.counter;
}

let word_bits = Sys.int_size

let set_unmapped t i =
  let w = i / word_bits in
  t.unmapped.(w) <- t.unmapped.(w) lor (1 lsl (i mod word_bits))

let clear_unmapped t i =
  let w = i / word_bits in
  t.unmapped.(w) <- t.unmapped.(w) land lnot (1 lsl (i mod word_bits))

let create ~nslots ~page_size =
  if nslots <= 0 then invalid_arg "Cache.create: nslots must be positive";
  let slots =
    Array.init nslots (fun index ->
        { index; bytes = Bytes.create page_size; page = None; dirty = false; rec_lsn = 0;
          page_lsn = 0; pins = 0 })
  in
  let stats = Stats.create () in
  let t =
    {
      slots;
      page_size;
      map = Int_map.create nslots;
      unmapped = Array.make ((nslots + word_bits - 1) / word_bits) 0;
      writeback = (fun _ _ ~lsn:_ -> ());
      choose_victim = (fun () -> None);
      n_dirty = 0;
      access_hook = None;
      stats;
      c_hits = Stats.counter stats "cache.hits";
      c_misses = Stats.counter stats "cache.misses";
      c_loads = Stats.counter stats "cache.loads";
      c_evictions = Stats.counter stats "cache.evictions";
      c_evict_clean = Stats.counter stats "cache.evict_clean";
      c_evict_dirty = Stats.counter stats "cache.evict_dirty";
      c_dirty_writebacks = Stats.counter stats "cache.dirty_writebacks";
      c_discards = Stats.counter stats "cache.discards";
    }
  in
  for i = 0 to nslots - 1 do
    set_unmapped t i
  done;
  (* Default policy: first unpinned slot (FIFO-ish); real policies are
     installed with [set_victim_chooser]. *)
  t.choose_victim <-
    (fun () ->
      let found = ref None in
      (try
         Array.iter
           (fun s -> if s.pins = 0 then begin found := Some s.index; raise Exit end)
           t.slots
       with Exit -> ());
      !found);
  t

(* Not done by [create]: a session's pool and a node server's shared
   cache are caches too, and the registry's [cache] namespace names the
   one that registers, the server's ({!Bess.Store.create}). *)
let register t =
  Bess_obs.Registry.register_stats "cache" t.stats;
  Bess_obs.Registry.register_gauge "cache" "cache.resident_pages" (fun () ->
      Int_map.length t.map);
  Bess_obs.Registry.register_gauge "cache" "cache.dirty_pages" (fun () -> t.n_dirty)

let nslots t = Array.length t.slots
let page_size t = t.page_size
let stats t = t.stats
let slot t i = t.slots.(i)
let set_writeback t f = t.writeback <- f
let set_victim_chooser t f = t.choose_victim <- f
let set_access_hook t h = t.access_hook <- h

(* Clear a slot's dirty bit, maintaining the incremental gauge count. *)
let clear_dirty t s =
  if s.dirty then begin
    s.dirty <- false;
    s.rec_lsn <- 0;
    t.n_dirty <- t.n_dirty - 1
  end

(* The index of the slot holding [page], or -1. *)
let index t page = Int_map.find t.map (Page_id.to_key page)

(* Peek without touching hit/miss counters (for assertions and tools). *)
let find_slot t page = match index t page with -1 -> None | i -> Some t.slots.(i)

let page_lsn t page = match index t page with -1 -> 0 | i -> t.slots.(i).page_lsn

let n_resident t = Int_map.length t.map

(* Every mapped slot has exactly one [map] entry, so the map's size
   counts the unmapped slots too, in O(1). *)
let n_unmapped t = Array.length t.slots - n_resident t

(* Forget a slot's page (eviction, discard): it becomes free. *)
let unmap t s page =
  Int_map.remove t.map (Page_id.to_key page);
  s.page <- None;
  s.page_lsn <- 0;
  set_unmapped t s.index;
  clear_dirty t s

exception Cache_full

(* Free slot [s], writing its page back first if dirty; returns [s]. *)
let evict t s =
  if s.pins > 0 then invalid_arg "Cache: policy chose a pinned slot";
  (match s.page with
  | Some page ->
      (* Clean/dirty split: a dirty eviction is a page written to
         storage only to make room — the write-amplification signal —
         while a clean one costs nothing downstream. [cache.evictions]
         stays as the total. *)
      if s.dirty then begin
        t.writeback page s.bytes ~lsn:s.page_lsn;
        Stats.bump t.c_dirty_writebacks;
        Stats.bump t.c_evict_dirty
      end
      else Stats.bump t.c_evict_clean;
      unmap t s page;
      Stats.bump t.c_evictions
  | None -> clear_dirty t s);
  s

(* Evict the slot chosen by the policy, writing it back if dirty.
   Returns the freed slot. The span's closure is built only while a
   collector records. *)
let evict_one t =
  match t.choose_victim () with
  | None -> raise Cache_full
  | Some i ->
      let s = t.slots.(i) in
      if Span.enabled () then Span.with_span ~kind:"cache.evict" (fun () -> evict t s)
      else evict t s

(* The index of [x]'s lowest set bit; [x] is not 0. *)
let lowest_bit x =
  let x = x land -x in
  let n = if x land 0xFFFF_FFFF = 0 then 32 else 0 in
  let n = if (x lsr n) land 0xFFFF = 0 then n + 16 else n in
  let n = if (x lsr n) land 0xFF = 0 then n + 8 else n in
  let n = if (x lsr n) land 0xF = 0 then n + 4 else n in
  let n = if (x lsr n) land 0x3 = 0 then n + 2 else n in
  if (x lsr n) land 0x1 = 0 then n + 1 else n

(* The lowest unmapped, unpinned slot from word [w] on, whose bits not
   yet examined are [bits]; else the policy's victim. Top-level, so
   that a call allocates no closure. *)
let rec scan_free t w bits =
  if bits <> 0 then
    let s = t.slots.((w * word_bits) + lowest_bit bits) in
    if s.pins = 0 then s else scan_free t w (bits land (bits - 1))
  else if w + 1 < Array.length t.unmapped then scan_free t (w + 1) t.unmapped.(w + 1)
  else evict_one t

(* Find a free slot, evicting if necessary: the lowest-index unmapped,
   unpinned slot, else the policy's victim. A full cache (the steady
   state of a spilling working set) goes straight to the policy. The
   slot returned stays unmapped until its fill succeeds, so a fill that
   raises leaves it choosable. *)
let free_slot t = if n_unmapped t = 0 then evict_one t else scan_free t 0 t.unmapped.(0)

(* [load t page ~fill] returns the slot holding [page], reading it with
   [fill] on a miss. The returned slot is pinned; callers unpin. *)
let miss t page key fill =
  let s = free_slot t in
  fill s.bytes;
  Stats.bump t.c_loads;
  s.page <- Some page;
  s.pins <- s.pins + 1;
  Int_map.replace t.map key s.index;
  clear_unmapped t s.index;
  s

let load t page ~fill =
  let key = Page_id.to_key page in
  if key < 0 then invalid_arg "Cache.load: negative page key";
  match Int_map.find t.map key with
  | -1 ->
      Stats.bump t.c_misses;
      (match t.access_hook with None -> () | Some f -> f page ~hit:false);
      if Span.enabled () then
        Span.with_span ~kind:"cache.miss"
          ~attrs:[ ("page", Printf.sprintf "%d:%d" page.Page_id.area page.Page_id.page) ]
          (fun () -> miss t page key fill)
      else miss t page key fill
  | i ->
      Stats.bump t.c_hits;
      (match t.access_hook with None -> () | Some f -> f page ~hit:true);
      let s = t.slots.(i) in
      s.pins <- s.pins + 1;
      s

let unpin _t s =
  if s.pins <= 0 then invalid_arg "Cache.unpin: slot not pinned";
  s.pins <- s.pins - 1

let mark_dirty t s =
  if not s.dirty then begin
    s.dirty <- true;
    t.n_dirty <- t.n_dirty + 1
  end

let mark_clean = clear_dirty

let mark_dirty_at t s ~lsn =
  if not s.dirty then s.rec_lsn <- lsn;
  s.page_lsn <- lsn;
  mark_dirty t s

(* Drop a clean or dirty page without writing it back (callback locking:
   the client discards its cached copy; aborts may also purge). *)
let discard t page =
  match index t page with
  | -1 -> ()
  | i ->
      let s = t.slots.(i) in
      if s.pins > 0 then invalid_arg "Cache.discard: page is pinned";
      unmap t s page;
      Stats.bump t.c_discards

(* Re-key a resident page to a new identity without touching its bytes
   (segment relocation: same frame, new disk address). *)
let rekey t ~old_page ~new_page =
  match index t old_page with
  | -1 -> invalid_arg "Cache.rekey: page not resident"
  | i ->
      let key = Page_id.to_key new_page in
      if Int_map.mem t.map key then invalid_arg "Cache.rekey: target already resident";
      Int_map.remove t.map (Page_id.to_key old_page);
      Int_map.replace t.map key i;
      t.slots.(i).page <- Some new_page

(* Write back every dirty page (checkpoint / shutdown). *)
let flush_all t =
  Array.iter
    (fun s ->
      match s.page with
      | Some page when s.dirty ->
          t.writeback page s.bytes ~lsn:s.page_lsn;
          clear_dirty t s;
          Stats.incr t.stats "cache.flush_writebacks"
      | _ -> ())
    t.slots

let iter_resident t f =
  Array.iter (fun s -> match s.page with Some page -> f page s | None -> ()) t.slots

let hit_ratio t =
  let h = Stats.get t.stats "cache.hits" in
  let m = Stats.get t.stats "cache.misses" in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
