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

type slot = {
  index : int;
  bytes : Bytes.t;
  mutable page : Page_id.t option;
  mutable dirty : bool;
  mutable rec_lsn : int; (* LSN that took the page from clean to dirty; 0 while clean *)
  mutable pins : int;
}

type t = {
  slots : slot array;
  page_size : int;
  map : int Page_id.Tbl.t; (* page -> slot index *)
  mutable writeback : Page_id.t -> Bytes.t -> unit;
  mutable choose_victim : unit -> int option;
  mutable n_dirty : int; (* slots with [dirty] set, kept incrementally *)
  (* Every slot below [free_hint] is mapped, so the lowest free slot is
     at or above it. [unmap] lowers it; [free_slot] raises it past the
     mapped slots it finds there. *)
  mutable free_hint : int;
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

let create ~nslots ~page_size =
  if nslots <= 0 then invalid_arg "Cache.create: nslots must be positive";
  let slots =
    Array.init nslots (fun index ->
        { index; bytes = Bytes.create page_size; page = None; dirty = false; rec_lsn = 0;
          pins = 0 })
  in
  let stats = Stats.create () in
  let t =
    {
      slots;
      page_size;
      map = Page_id.Tbl.create (2 * nslots);
      writeback = (fun _ _ -> ());
      choose_victim = (fun () -> None);
      n_dirty = 0;
      free_hint = 0;
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
      Page_id.Tbl.length t.map);
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

let lookup t page =
  match Page_id.Tbl.find_opt t.map page with
  | Some i ->
      Stats.bump t.c_hits;
      (match t.access_hook with None -> () | Some f -> f page ~hit:true);
      Some t.slots.(i)
  | None ->
      Stats.bump t.c_misses;
      (match t.access_hook with None -> () | Some f -> f page ~hit:false);
      None

(* Peek without touching hit/miss counters (for assertions and tools). *)
let find_slot t page = Option.map (fun i -> t.slots.(i)) (Page_id.Tbl.find_opt t.map page)

let n_resident t = Page_id.Tbl.length t.map

(* Every mapped slot has exactly one [map] entry, so the table's size
   counts the unmapped slots too, in O(1). *)
let n_unmapped t = Array.length t.slots - n_resident t

(* Forget a slot's page (eviction, discard): it becomes free. *)
let unmap t s page =
  Page_id.Tbl.remove t.map page;
  s.page <- None;
  if s.index < t.free_hint then t.free_hint <- s.index;
  clear_dirty t s

exception Cache_full

(* Evict the slot chosen by the policy, writing it back if dirty.
   Returns the freed slot. *)
let evict_one t =
  match t.choose_victim () with
  | None -> raise Cache_full
  | Some i ->
      Span.with_span ~kind:"cache.evict" (fun () ->
          let s = t.slots.(i) in
          if s.pins > 0 then invalid_arg "Cache: policy chose a pinned slot";
          (match s.page with
          | Some page ->
              (* Clean/dirty split: a dirty eviction is a page written to
                 storage only to make room — the write-amplification
                 signal — while a clean one costs nothing downstream.
                 [cache.evictions] stays as the total. *)
              if s.dirty then begin
                t.writeback page s.bytes;
                Stats.bump t.c_dirty_writebacks;
                Stats.bump t.c_evict_dirty
              end
              else Stats.bump t.c_evict_clean;
              unmap t s page;
              Stats.bump t.c_evictions
          | None -> clear_dirty t s);
          s)

(* Top-level, not local, so that a call allocates no closure. *)
let rec skip_mapped slots i =
  if i >= Array.length slots then i
  else match slots.(i).page with Some _ -> skip_mapped slots (i + 1) | None -> i

let rec scan_free t i =
  if i >= Array.length t.slots then evict_one t
  else
    let s = t.slots.(i) in
    match s.page with None when s.pins = 0 -> s | _ -> scan_free t (i + 1)

(* Find a free slot, evicting if necessary: the lowest-index unmapped,
   unpinned slot, else the policy's victim. A full cache (the steady
   state of a spilling working set) goes straight to the policy. The
   scan starts at [free_hint], which it first moves past mapped slots
   only: the slot it returns stays unmapped until its fill succeeds, so
   a fill that raises leaves it choosable. *)
let free_slot t =
  if n_unmapped t = 0 then evict_one t
  else begin
    t.free_hint <- skip_mapped t.slots t.free_hint;
    scan_free t t.free_hint
  end

(* [load t page ~fill] returns the slot holding [page], reading it with
   [fill] on a miss. The returned slot is pinned; callers unpin. *)
let load t page ~fill =
  match lookup t page with
  | Some s ->
      s.pins <- s.pins + 1;
      s
  | None ->
      Span.with_span ~kind:"cache.miss"
        ~attrs:
          (if Span.enabled () then
             [ ("page", Printf.sprintf "%d:%d" page.Page_id.area page.Page_id.page) ]
           else [])
        (fun () ->
          let s = free_slot t in
          fill s.bytes;
          Stats.bump t.c_loads;
          s.page <- Some page;
          s.pins <- s.pins + 1;
          Page_id.Tbl.replace t.map page s.index;
          s)

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
  mark_dirty t s

(* Drop a clean or dirty page without writing it back (callback locking:
   the client discards its cached copy; aborts may also purge). *)
let discard t page =
  match Page_id.Tbl.find_opt t.map page with
  | None -> ()
  | Some i ->
      let s = t.slots.(i) in
      if s.pins > 0 then invalid_arg "Cache.discard: page is pinned";
      unmap t s page;
      Stats.bump t.c_discards

(* Re-key a resident page to a new identity without touching its bytes
   (segment relocation: same frame, new disk address). *)
let rekey t ~old_page ~new_page =
  match Page_id.Tbl.find_opt t.map old_page with
  | None -> invalid_arg "Cache.rekey: page not resident"
  | Some i ->
      if Page_id.Tbl.mem t.map new_page then invalid_arg "Cache.rekey: target already resident";
      Page_id.Tbl.remove t.map old_page;
      Page_id.Tbl.replace t.map new_page i;
      t.slots.(i).page <- Some new_page

(* Write back every dirty page (checkpoint / shutdown). *)
let flush_all t =
  Array.iter
    (fun s ->
      match s.page with
      | Some page when s.dirty ->
          t.writeback page s.bytes;
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
