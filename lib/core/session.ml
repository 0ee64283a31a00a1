(* A session: one client application context over the simulated VM.

   This is the heart of BeSS (sections 2.1-2.3): the three-wave fault
   scheme, pointer swizzling, hardware write detection, and the corruption
   guard, all driven by the {!Bess_vmem} fault handler.

   Wave 1: resolving a reference reserves an access-protected address
   range for the target's *slotted* segment -- no data, no backing.

   Wave 2 (slotted-segment fault): touching that range fetches the slotted
   segment, fixes every slot's DP with two arithmetic operations
   (dp <- dp - last_base + new_base), write-protects the slot pages
   (corruption guard), and reserves an address range for the *data*
   segment.

   Wave 3 (data-segment fault): touching the data range fetches data
   pages and swizzles the references they contain (located through type
   descriptors) into VM addresses of the target slots, reserving further
   slotted ranges as needed -- which is wave 1 for the next generation.

   Write detection: data pages map read-only; the first store faults, the
   handler X-locks the page, keeps a before-image, and grants write
   access. A data page's before-image is a copy of its swizzled frame; a
   slot page's or large-object page's is its canonical (disk) form. At
   commit the before/after images are diffed into physical log records,
   in canonical form, shipped to the server.

   Corruption guard: slot pages stay write-protected; a user store into
   them raises {!Corruption} at the faulting instruction. The runtime
   itself updates slots through {!Bess_vmem.Vmem.with_unprotected}.

   Replacement (section 4.2): the private pool is swept by the
   frame-state clock; "protected" pages keep their frame but lose access,
   and a subsequent touch re-grants it -- the memory-mapped analogue of
   the reference bit. *)

module Page_id = Bess_cache.Page_id
module Vmem = Bess_vmem.Vmem
module Cache = Bess_cache.Cache
module State_clock = Bess_cache.State_clock
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode
module Seg_addr = Bess_storage.Seg_addr
module Span = Bess_obs.Span
module Stats = Bess_util.Stats
module Codec = Bess_util.Codec
module Int_map = Bess_util.Int_map
module Int_store = Bess_util.Int_store

exception Corruption of { addr : int }
exception Stale_oid of Oid.t
exception Segment_full of { seg : int }

type seg_rt = {
  db_id : int;
  seg_id : int;
  slotted_disk : Seg_addr.t;
  mutable slotted_base : int; (* VM base of the slotted range; set at creation *)
  mutable slotted_present : bool;
  mutable data_disk : Seg_addr.t; (* meaningful once the header has been read *)
  mutable data_base : int; (* 0 until the data range is reserved *)
  mutable capacity : int; (* max slots the slotted pages can hold *)
  large_bases : (int, int) Hashtbl.t; (* slot -> VM base of its large-object range *)
  large_disks : (int, Seg_addr.t) Hashtbl.t; (* slot -> large-object disk segment *)
  (* Reference map: for each data page, the page-relative offsets of the
     reference fields of the used small objects overlapping it. Valid
     while [refs_gen = gen]; [gen] moves whenever slot contents or
     [data_base] may have changed (see [invalidate_refs]). *)
  mutable gen : int;
  mutable refs_gen : int;
  mutable refs : int array array;
}

type region = Slotted of seg_rt | Data of seg_rt | Large of seg_rt * int

type write_entry = {
  we_page : Page_id.t;
  we_vm : int; (* VM address of the page start *)
  we_region : region;
  we_before : Bytes.t; (* the page's image at first write *)
  we_refs : int array;
      (* The data page's reference offsets when [we_before] was copied
         from its swizzled frame; [canonical] if [we_before] is the
         canonical image. *)
  we_owned : bool; (* [we_before] came from [free_images]; a caller's image is not ours *)
}

(* The [we_refs] of a canonical before-image: never a reference map's
   array. *)
let canonical = [| -1 |]

type swizzle_policy = Eager | On_deref

type db_binding = {
  b_catalog : Catalog.t;
  b_fetcher : Fetcher.t;
  b_default_area : int;
  b_area_ids : int list; (* every storage area of this database *)
  mutable b_txn : int option; (* transaction open at this db's server *)
  mutable b_forward_seg : int option; (* segment holding forward objects *)
}

(* Counter handles for the counters the per-transaction path bumps. *)
type counters = {
  c_txns : Stats.counter;
  c_commits : Stats.counter;
  c_swizzles : Stats.counter;
  c_data_faults : Stats.counter;
  c_write_faults : Stats.counter;
  c_callbacks_dropped : Stats.counter;
}

type t = {
  vmem : Vmem.t;
  page_shift : int; (* log2 of the page size: page arithmetic is shifts *)
  pool : Cache.t;
  clock : State_clock.t;
  slot_vm : int array; (* pool slot index -> VM page address currently backed *)
  dbs : (int, db_binding) Hashtbl.t;
  main_db : int;
  segs : seg_rt Int_store.t; (* packed (db, segment id) -> runtime *)
  mutable regions : region option array; (* vmem page index -> region *)
  mapped : int Page_id.Tbl.t; (* disk page -> VM page address *)
  write_set : write_entry Page_id.Tbl.t;
  forwards : (int * int, int) Hashtbl.t; (* (src db, Oid.hash-free key) -> forward slot addr *)
  hooks : Event.hooks;
  mutable policy : swizzle_policy;
  mutable fetch_whole_segments : bool;
  mutable in_txn : bool;
  mutable txn_span : Span.handle; (* session.txn: open from begin to commit/abort *)
  scratch : Bytes.t; (* one page: the commit-time after-image, diffed then reused *)
  scratch_before : Bytes.t; (* one page: a canonicalised before-image, at commit *)
  fetched : Bytes.t; (* one page: a fetched page, swizzled here, then copied into the pool *)
  mutable free_images : Bytes.t list; (* page buffers for before-images, recycled at txn end *)
  stats : Bess_util.Stats.t;
  c : counters;
}

let page_size t = Vmem.page_size t.vmem

(* The page a VM address falls in, as a page number or, from a page's
   own base, as a page index; and the address of that page. *)
let page_no t addr = addr asr t.page_shift
let page_base t addr = page_no t addr lsl t.page_shift
let mem t = t.vmem
let hooks t = t.hooks
let stats t = t.stats
let set_swizzle_policy t p = t.policy <- p
let set_fetch_whole_segments t b = t.fetch_whole_segments <- b

let binding t db_id =
  match Hashtbl.find_opt t.dbs db_id with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Session: database %d not attached" db_id)

let main_binding t = binding t t.main_db
let main_db_id t = t.main_db
let write_set_table t = t.write_set
let pool t = t.pool
let db_area_ids t db_id = (binding t db_id).b_area_ids

(* ---- Region bookkeeping ---- *)

(* [regions] holds one shared [Some region] per reserved range, so a
   lookup is an array read and allocates nothing. *)
let region_at t addr =
  let i = page_no t addr in
  if i >= 0 && i < Array.length t.regions then t.regions.(i) else None

let add_region t ~base ~npages region =
  let first = page_no t base in
  let n = Array.length t.regions in
  if first + npages > n then begin
    let grown = Array.make (Stdlib.max (first + npages) (2 * n)) None in
    Array.blit t.regions 0 grown 0 n;
    t.regions <- grown
  end;
  Array.fill t.regions first npages (Some region)

let remove_region t ~base ~npages = Array.fill t.regions (page_no t base) npages None

(* The reference map of a segment is stale from here on. *)
let invalidate_refs seg = seg.gen <- seg.gen + 1

(* Disk page behind a VM address, given its region. *)
let page_id_of t region vm_page_addr =
  let idx_from base = page_no t (vm_page_addr - base) in
  match region with
  | Slotted seg ->
      { Page_id.area = seg.slotted_disk.area;
        page = seg.slotted_disk.first_page + idx_from seg.slotted_base }
  | Data seg ->
      { Page_id.area = seg.data_disk.area;
        page = seg.data_disk.first_page + idx_from seg.data_base }
  | Large (seg, slot) ->
      let disk = Hashtbl.find seg.large_disks slot in
      let base = Hashtbl.find seg.large_bases slot in
      { Page_id.area = disk.area; page = disk.first_page + idx_from base }

(* ---- Transactions (lazy per-database) ---- *)

let txn_for t (b : db_binding) =
  match b.b_txn with
  | Some txn -> txn
  | None ->
      if not t.in_txn then invalid_arg "Session: no transaction in progress";
      let txn = b.b_fetcher.f_begin () in
      b.b_txn <- Some txn;
      txn

(* ---- Pool frame management ---- *)

(* Install [bytes] as the backing of [vm_page_addr]. The pool slot is the
   virtual frame of the replacement clock. [pin] keeps it unevictable
   (slot pages; write-set pages pin at fault time). *)
let map_frame t page_id vm_page_addr bytes ~pin ~prot =
  let slot =
    Cache.load t.pool page_id ~fill:(fun buf -> Bytes.blit bytes 0 buf 0 (Bytes.length bytes))
  in
  Vmem.map t.vmem vm_page_addr slot.Cache.bytes;
  Vmem.set_prot t.vmem vm_page_addr 1 prot;
  t.slot_vm.(slot.Cache.index) <- vm_page_addr;
  State_clock.map t.clock ~vframe:slot.Cache.index ~slot:slot.Cache.index;
  Page_id.Tbl.replace t.mapped page_id vm_page_addr;
  if not pin then Cache.unpin t.pool slot;
  slot

(* Detach the frame behind a VM page from the address space, firing
   [Segment_replacement]; [discard] also gives up its pool slot, which a
   clock-driven eviction leaves to the pool. *)
let detach_frame t vm_page_addr ~discard =
  if Vmem.is_mapped t.vmem vm_page_addr then begin
    (match region_at t vm_page_addr with
    | Some region ->
        let page_id = page_id_of t region vm_page_addr in
        Page_id.Tbl.remove t.mapped page_id;
        if discard then Cache.discard t.pool page_id;
        Event.fire t.hooks
          (Segment_replacement { area = page_id.area; page = page_id.page })
    | None -> ());
    Vmem.unmap t.vmem vm_page_addr
  end

(* Drop the frame behind a VM page (replacement victim or callback). *)
let unmap_vm_page t vm_page_addr = detach_frame t vm_page_addr ~discard:true

(* The replacement clock needs pool slots free when the pool fills. Its
   [protect] callback revokes access to the VM page behind a frame so a
   later touch signals recency; its [invalidate] callback unmaps it. *)
let clock_protect t vframe =
  let vm = t.slot_vm.(vframe) in
  if vm <> 0 && Vmem.is_reserved t.vmem vm then Vmem.set_prot t.vmem vm 1 Prot_none

let clock_invalidate t vframe =
  let vm = t.slot_vm.(vframe) in
  if vm <> 0 then begin
    detach_frame t vm ~discard:false;
    t.slot_vm.(vframe) <- 0
  end

let choose_victim t () =
  match
    State_clock.sweep_victim t.clock ~can_evict:(fun slot ->
        (Cache.slot t.pool slot).Cache.pins = 0)
  with
  | Some (_vframe, slot) -> Some slot
  | None -> None

(* Honour a server callback: give up the cached copy of [page_id].
   Dropping a slot page invalidates the whole slotted-segment view (the
   pins on slot pages are runtime pins, released here); the segment
   refetches on next touch, DPs re-fixed against the retained data
   range. *)
let drop_cached_page t page_id =
  match Page_id.Tbl.find_opt t.mapped page_id with
  | None -> ()
  | Some vm -> (
      match region_at t vm with
      | Some (Slotted seg) ->
          for i = 0 to seg.slotted_disk.npages - 1 do
            let pid =
              { Page_id.area = seg.slotted_disk.area; page = seg.slotted_disk.first_page + i }
            in
            match Page_id.Tbl.find_opt t.mapped pid with
            | Some vmi ->
                (match Cache.find_slot t.pool pid with
                | Some slot -> if slot.Cache.pins > 0 then slot.Cache.pins <- slot.Cache.pins - 1
                | None -> ());
                Page_id.Tbl.remove t.mapped pid;
                Cache.discard t.pool pid;
                Vmem.unmap t.vmem vmi
            | None -> ()
          done;
          seg.slotted_present <- false;
          invalidate_refs seg
      | Some (Data _ | Large _) | None -> unmap_vm_page t vm)

(* ---- Segment runtime lookup ---- *)

(* Wave 1: know a segment and reserve its slotted address range. *)
let get_seg t ~db_id ~seg_id =
  let key = Int_map.pack db_id seg_id in
  let i = Int_store.index t.segs key in
  if i >= 0 then Int_store.get t.segs i
  else
    let b = binding t db_id in
    let slotted_disk = Catalog.find_segment b.b_catalog seg_id in
    let slotted_base = Vmem.reserve t.vmem slotted_disk.npages in
    let seg =
      {
        db_id;
        seg_id;
        slotted_disk;
        slotted_base;
        slotted_present = false;
        data_disk = { area = 0; first_page = 0; npages = 0 };
        data_base = 0;
        capacity = Layout.slots_capacity ~pages:slotted_disk.npages ~page_size:(page_size t);
        large_bases = Hashtbl.create 4;
        large_disks = Hashtbl.create 4;
        gen = 0;
        refs_gen = -1;
        refs = [||];
      }
    in
    add_region t ~base:slotted_base ~npages:slotted_disk.npages (Slotted seg);
    Int_store.add t.segs key seg;
    Bess_util.Stats.incr t.stats "session.wave1_reservations";
    seg

let slot_addr seg idx = seg.slotted_base + Layout.slot_offset idx

(* Reverse of swizzling: which (db, seg, slot) does a swizzled slot
   address name? *)
let slot_seg t addr =
  match region_at t addr with
  | Some (Slotted seg) -> seg
  | _ -> invalid_arg (Printf.sprintf "Session: 0x%x is not a slot address" addr)

let slot_index seg addr = (addr - seg.slotted_base - Layout.header_size) / Layout.slot_size

let unswizzle_addr t addr =
  let seg = slot_seg t addr in
  (seg, slot_index seg addr)

(* Runtime reads of a slot or the header, through the protected mapping. *)
let read_slot_u32 t seg idx ~field = Vmem.read_u32 t.vmem (slot_addr seg idx + field)
let read_slot_i64 t seg idx ~field = Vmem.read_i64 t.vmem (slot_addr seg idx + field)
let read_header_u32 t seg ~field = Vmem.read_u32 t.vmem (seg.slotted_base + field)

(* ---- Slot pages: disk form and mapped form ----

   A slot page has two forms. In its disk form (on disk, in before-images
   and in commit after-images) every data DP is relative to the data
   segment, the header's last_data_base is 0, and lock pointers and
   transparent large objects' DPs are 0. In its mapped form every data DP
   is a VM address in the range at [seg.data_base], which the header
   records as last_data_base, and a resolved large object's DP is its
   reserved range. *)

type slot_form = Disk | Mapped

(* Convert [img], slot page [page_idx] of [seg] whose data DPs are
   relative to [last_base], into [form]: two arithmetic operations per
   DP, dp - last_base + new_base, as in the paper. [n_slots] is the
   segment's slot count. Slots never straddle a page (Layout), so the
   image holds every field it converts. *)
let convert_slot_page t seg img ~page_idx ~n_slots ~last_base form =
  let ps = page_size t in
  let new_base = match form with Disk -> 0 | Mapped -> seg.data_base in
  if page_idx = 0 then Codec.set_i64 img Layout.hdr_last_data_base new_base;
  let lo = page_idx * ps in
  let first = if page_idx = 0 then 0 else (lo - Layout.header_size) / Layout.slot_size in
  let last = Stdlib.min n_slots ((lo + ps - Layout.header_size) / Layout.slot_size) - 1 in
  for idx = first to last do
    let off = Layout.slot_offset idx - lo in
    let flags = Codec.get_u32 img (off + Layout.slot_flags) in
    let dp = off + Layout.slot_dp in
    if Layout.has_data_dp flags then
      Codec.set_i64 img dp (Codec.get_i64 img dp - last_base + new_base)
    else if flags land Layout.flag_used <> 0 then
      Codec.set_i64 img dp
        (match form with
        | Disk -> 0
        | Mapped -> Option.value ~default:0 (Hashtbl.find_opt seg.large_bases idx));
    if form = Disk then Codec.set_i64 img (off + Layout.slot_lock) 0
  done

(* ---- Wave 2: slotted-segment fault ---- *)

(* One span per fault wave, nested under the ambient vmem.fault span
   when the wave was trap-driven (waves may also run eagerly, e.g. from
   [ensure_slotted] at segment creation — then they parent wherever the
   caller is). *)
let fault_span wave seg f =
  Span.with_span ~kind:"session.fault"
    ~attrs:
      (if Span.enabled () then [ ("wave", wave); ("seg", string_of_int seg.seg_id) ] else [])
    f

(* Every change of [data_base] goes through here: the reference map
   holds data-relative offsets computed from it. *)
let set_data_base seg base =
  seg.data_base <- base;
  invalidate_refs seg

let ensure_data_range t seg =
  if seg.data_base = 0 && seg.data_disk.npages > 0 then begin
    set_data_base seg (Vmem.reserve t.vmem seg.data_disk.npages);
    add_region t ~base:seg.data_base ~npages:seg.data_disk.npages (Data seg);
    Bess_util.Stats.incr t.stats "session.data_reservations"
  end

let slotted_fault t seg =
  fault_span "slotted" seg @@ fun () ->
  let b = binding t seg.db_id in
  let txn = txn_for t b in
  let pages = b.b_fetcher.f_fetch_segment ~txn seg.slotted_disk ~mode:Lock_mode.S in
  let ps = page_size t in
  let hdr = List.hd pages in
  seg.data_disk <- Seg_addr.decode hdr Layout.hdr_data_disk;
  ensure_data_range t seg;
  (* Convert each page to its mapped form, then map it write-protected
     and pinned: control structures stay resident and unwritable by user
     code. *)
  let n_slots = Codec.get_u32 hdr Layout.hdr_n_slots in
  let last_base = Codec.get_i64 hdr Layout.hdr_last_data_base in
  List.iteri
    (fun i bytes ->
      convert_slot_page t seg bytes ~page_idx:i ~n_slots ~last_base Mapped;
      let page_id =
        { Page_id.area = seg.slotted_disk.area; page = seg.slotted_disk.first_page + i }
      in
      ignore
        (map_frame t page_id (seg.slotted_base + (i * ps)) bytes ~pin:true
           ~prot:Prot_read))
    pages;
  seg.slotted_present <- true;
  invalidate_refs seg;
  Bess_util.Stats.incr t.stats "session.slotted_faults";
  Event.fire t.hooks (Slotted_fault { seg = seg.seg_id })

let ensure_slotted t seg = if not seg.slotted_present then slotted_fault t seg

(* ---- Wave 3: data-segment fault, with swizzling ---- *)

(* The reference map of [seg] (see [seg_rt]), rebuilt when stale. It is
   read from the raw slot-page frames, not through protected accesses:
   it runs inside the fault handler, where the replacement clock may
   have revoked access to a slot page, and the runtime's own reads of
   its control structures are not user accesses. Offsets on each page
   keep slot order, then type-descriptor order. *)
let ref_map t seg =
  ensure_slotted t seg;
  if seg.refs_gen <> seg.gen then begin
    let ps = page_size t in
    let frames =
      Array.init seg.slotted_disk.npages (fun i ->
          let vm = seg.slotted_base + (i * ps) in
          if Vmem.is_mapped t.vmem vm then Vmem.frame t.vmem vm
          else invalid_arg "Session: slot page not mapped")
    in
    (* Slots never straddle a page (Layout), so neither do their fields. *)
    let u32 off = Codec.get_u32 frames.(page_no t off) (off land (ps - 1)) in
    let i64 off = Codec.get_i64 frames.(page_no t off) (off land (ps - 1)) in
    let types = Catalog.types (binding t seg.db_id).b_catalog in
    let npages = seg.data_disk.npages in
    let on_page = Array.make npages [] in
    for idx = 0 to u32 Layout.hdr_n_slots - 1 do
      let off = Layout.slot_offset idx in
      if Layout.has_data_dp (u32 (off + Layout.slot_flags)) then begin
        let obj_off = i64 (off + Layout.slot_dp) - seg.data_base in
        let size = u32 (off + Layout.slot_objsize) in
        let ty = Type_desc.find types (u32 (off + Layout.slot_type)) in
        Array.iter
          (fun roff ->
            let abs = obj_off + roff in
            let page = page_no t abs in
            let lo = page * ps in
            (* The field lies wholly on [page], which the object overlaps. *)
            if abs >= 0 && page < npages && abs + 8 <= lo + ps && obj_off < lo + ps
               && obj_off + size > lo
            then on_page.(page) <- (abs - lo) :: on_page.(page))
          ty.ref_offsets
      end
    done;
    seg.refs <- Array.map (fun l -> Array.of_list (List.rev l)) on_page;
    seg.refs_gen <- seg.gen
  end;
  seg.refs

(* Swizzle the references contained in one raw data page image (wave 3
   proper): unswizzled values become VM slot addresses, reserving target
   slotted ranges as needed (wave 1 for the referenced segments). The
   references on a page mostly name one or two segments, so the last
   target is tried before the segment table. *)
let swizzle_page_raw t seg page_idx (bytes : Bytes.t) =
  let refs = (ref_map t seg).(page_idx) in
  let last = ref seg in
  for k = 0 to Array.length refs - 1 do
    let off = refs.(k) in
    let v = Codec.get_i64 bytes off in
    if Layout.is_unswizzled v then begin
      let seg_id = Layout.unswizzled_seg v in
      if !last.seg_id <> seg_id then last := get_seg t ~db_id:seg.db_id ~seg_id;
      Codec.set_i64 bytes off
        (Layout.encode_swizzled (slot_addr !last (Layout.unswizzled_slot v)));
      Stats.bump t.c.c_swizzles
    end
  done

(* The inverse: put the reference words of [refs], offsets on a data page
   of [seg], into canonical (unswizzled) form in [img], which holds that
   page's bytes from offset [from] on. A word that does not lie wholly in
   [img] is left alone. As in [swizzle_page_raw], the last target's
   slotted range is tried first. *)
let unswizzle_refs t seg refs img ~from =
  let upto = from + Bytes.length img in
  let last = ref seg in
  for k = 0 to Array.length refs - 1 do
    let off = refs.(k) in
    if off >= from && off + 8 <= upto then begin
      let v = Codec.get_i64 img (off - from) in
      if v <> 0 && not (Layout.is_unswizzled v) then begin
        let l = !last in
        if v < l.slotted_base || page_no t (v - l.slotted_base) >= l.slotted_disk.npages then
          last := slot_seg t v;
        let tseg = !last in
        if tseg.db_id <> seg.db_id then
          failwith "Session: direct cross-database reference (must be forward)";
        Codec.set_i64 img (off - from)
          (Layout.encode_unswizzled ~seg:tseg.seg_id ~slot:(slot_index tseg v))
      end
    end
  done

let data_page_idx t seg vm_page_addr = page_no t (vm_page_addr - seg.data_base)

(* Write the canonical image of a mapped page into [img], one page
   long. *)
let unswizzle_page_into t region vm_page_addr img =
  let ps = page_size t in
  Bytes.blit (Vmem.frame t.vmem vm_page_addr) 0 img 0 ps;
  match region with
  | Large _ -> () (* raw bytes: nothing to canonicalise *)
  | Data seg ->
      unswizzle_refs t seg (ref_map t seg).(data_page_idx t seg vm_page_addr) img ~from:0
  | Slotted seg ->
      (* The slot count is read through the mapping, like every runtime
         read of the header outside a fault wave: a slot page the clock
         swept to protected is regranted when a write uses it. *)
      convert_slot_page t seg img ~page_idx:(page_no t (vm_page_addr - seg.slotted_base))
        ~n_slots:(read_header_u32 t seg ~field:Layout.hdr_n_slots) ~last_base:seg.data_base Disk

let unswizzle_page_image t region vm_page_addr =
  let img = Bytes.create (page_size t) in
  unswizzle_page_into t region vm_page_addr img;
  img

(* Fetch one data page (or, under the whole-segment policy, every
   still-unmapped page of the data segment). The faulting page stays
   pinned until the wave ends: the wave's later loads run the
   replacement clock, which must not evict it before the access it
   serves is retried. *)
let data_fault t seg faulting_page_idx =
  fault_span "data" seg @@ fun () ->
  ensure_slotted t seg;
  let b = binding t seg.db_id in
  let txn = txn_for t b in
  let ps = page_size t in
  let pinned = ref None in
  let fetch_one idx =
    let page_id = { Page_id.area = seg.data_disk.area; page = seg.data_disk.first_page + idx } in
    if not (Page_id.Tbl.mem t.mapped page_id) then begin
      b.b_fetcher.f_fetch_page ~txn page_id ~mode:Lock_mode.S ~into:t.fetched;
      if t.policy = Eager then swizzle_page_raw t seg idx t.fetched;
      let pin = idx = faulting_page_idx in
      let slot =
        map_frame t page_id (seg.data_base + (idx * ps)) t.fetched ~pin
          ~prot:Prot_read
      in
      if pin then pinned := Some slot
    end
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (Cache.unpin t.pool) !pinned)
    (fun () ->
      if t.fetch_whole_segments then
        for idx = 0 to seg.data_disk.npages - 1 do
          fetch_one idx
        done
      else fetch_one faulting_page_idx);
  Stats.bump t.c.c_data_faults;
  Event.fire t.hooks (Data_fault { seg = seg.seg_id })

(* Large-object page fault: fetch from the object's own disk segment. *)
let large_fault t seg slot page_idx =
  fault_span "large" seg @@ fun () ->
  let b = binding t seg.db_id in
  let txn = txn_for t b in
  let disk = Hashtbl.find seg.large_disks slot in
  let base = Hashtbl.find seg.large_bases slot in
  let page_id = { Page_id.area = disk.area; page = disk.first_page + page_idx } in
  if not (Page_id.Tbl.mem t.mapped page_id) then begin
    b.b_fetcher.f_fetch_page ~txn page_id ~mode:Lock_mode.S ~into:t.fetched;
    ignore
      (map_frame t page_id
         (base + (page_idx * page_size t))
         t.fetched ~pin:false ~prot:Prot_read)
  end;
  Bess_util.Stats.incr t.stats "session.large_faults"

(* ---- Write detection ---- *)

let note_write t region vm_page_addr =
  let page_id = page_id_of t region vm_page_addr in
  if not (Page_id.Tbl.mem t.write_set page_id) then begin
    let seg_db =
      match region with Slotted s | Data s | Large (s, _) -> s.db_id
    in
    let b = binding t seg_db in
    let txn = txn_for t b in
    b.b_fetcher.f_lock ~txn
      (Lock_mgr.page_resource ~area:page_id.area ~page:page_id.page)
      Lock_mode.X;
    let before =
      match t.free_images with
      | img :: rest ->
          t.free_images <- rest;
          img
      | [] -> Bytes.create (page_size t)
    in
    (* A data page keeps its swizzled frame and the reference offsets
       that locate the words commit must canonicalise; the others keep
       their canonical image. *)
    let refs =
      match region with
      | Data seg ->
          Bytes.blit (Vmem.frame t.vmem vm_page_addr) 0 before 0 (page_size t);
          (ref_map t seg).(data_page_idx t seg vm_page_addr)
      | Slotted _ | Large _ ->
          unswizzle_page_into t region vm_page_addr before;
          canonical
    in
    Page_id.Tbl.replace t.write_set page_id
      { we_page = page_id; we_vm = vm_page_addr; we_region = region; we_before = before;
        we_refs = refs; we_owned = true };
    (* Dirty pages must not be evicted before commit. *)
    (match Cache.find_slot t.pool page_id with
    | Some slot -> slot.Cache.pins <- slot.Cache.pins + 1
    | None -> ());
    Stats.bump t.c.c_write_faults
  end

let write_fault t region vm_page_addr =
  (match region with
  | Slotted _ ->
      (* User code stored through a stray pointer into control
         structures: the guard of section 2.2. *)
      Event.fire t.hooks (Protection_violation { addr = vm_page_addr; write = true });
      Bess_util.Stats.incr t.stats "session.corruption_trapped";
      raise (Corruption { addr = vm_page_addr })
  | Data seg | Large (seg, _) ->
      note_write t region vm_page_addr;
      Vmem.set_prot t.vmem vm_page_addr 1 Prot_read_write;
      Event.fire t.hooks (Write_fault { seg = seg.seg_id; addr = vm_page_addr }));
  ()

(* ---- The fault handler ---- *)

(* Give a clock-protected page its access back, at the level it had
   before the sweep; returns that level. *)
let regrant t region vm_page =
  let page_id = page_id_of t region vm_page in
  let level =
    if Page_id.Tbl.mem t.write_set page_id then Vmem.Prot_read_write else Vmem.Prot_read
  in
  Vmem.set_prot t.vmem vm_page 1 level;
  (match Cache.find_slot t.pool page_id with
  | Some slot -> State_clock.access t.clock ~vframe:slot.Cache.index
  | None -> ());
  level

let handle_fault t _vm ~addr ~access =
  let vm_page = page_base t addr in
  match region_at t addr with
  | None ->
      Event.fire t.hooks (Protection_violation { addr; write = access = Vmem.Write });
      raise (Corruption { addr })
  | Some region ->
      if Vmem.is_mapped t.vmem vm_page then begin
        (* Frame present: either the clock revoked access (regrant), or
           this is the first write to a read-only page. *)
        match (Vmem.prot_at t.vmem vm_page, access) with
        | Vmem.Prot_none, _ ->
            let level = regrant t region vm_page in
            if access = Vmem.Write && level = Vmem.Prot_read then write_fault t region vm_page
        | Vmem.Prot_read, Vmem.Write -> write_fault t region vm_page
        | Vmem.Prot_read, Vmem.Read | Vmem.Prot_read_write, _ -> ()
      end
      else begin
        (* Not fetched yet. *)
        (match region with
        | Slotted seg -> slotted_fault t seg
        | Data seg -> data_fault t seg (page_no t (vm_page - seg.data_base))
        | Large (seg, slot) ->
            large_fault t seg slot (page_no t (vm_page - Hashtbl.find seg.large_bases slot)));
        (* The wave's own loads may have swept the faulting page to
           protected; the retried access must find it granted. *)
        if Vmem.is_mapped t.vmem vm_page && Vmem.prot_at t.vmem vm_page = Vmem.Prot_none then
          ignore (regrant t region vm_page);
        (* On a slot page this raises Corruption. *)
        if access = Vmem.Write then write_fault t region vm_page
      end

(* ---- Construction ---- *)

(* Attach a database: the main one at creation, further ones for
   inter-database references (section 2.1). *)
let attach_db t ?area_ids ~db_id ~catalog ~fetcher ~default_area () =
  if Hashtbl.mem t.dbs db_id then invalid_arg "Session.attach_db: already attached";
  let area_ids = Option.value ~default:[ default_area ] area_ids in
  Hashtbl.replace t.dbs db_id
    { b_catalog = catalog; b_fetcher = fetcher; b_default_area = default_area;
      b_area_ids = area_ids; b_txn = None; b_forward_seg = None };
  fetcher.f_register_sink
    (Fetcher.page_sink
       ~busy:(fun () -> t.in_txn)
       ~drop:(fun page_id ->
         drop_cached_page t page_id;
         Stats.bump t.c.c_callbacks_dropped));
  Event.fire t.hooks (Db_open { db = db_id })

let create ?(pool_slots = 512) ?(page_size = 4096) ?area_ids ~db_id ~catalog ~fetcher
    ~default_area () =
  let vmem = Vmem.create ~page_size () in
  let pool = Cache.create ~nslots:pool_slots ~page_size in
  let stats = Stats.create () in
  Bess_obs.Registry.register_stats "session" stats;
  (* The clock's callbacks act on the session built around it. *)
  let self = ref None in
  let on_self f vframe = match !self with Some t -> f t vframe | None -> () in
  let t =
    {
      vmem;
      page_shift = Vmem.page_shift vmem;
      pool;
      clock =
        State_clock.create ~n_vframes:pool_slots ~protect:(on_self clock_protect)
          ~invalidate:(on_self clock_invalidate);
      slot_vm = Array.make pool_slots 0;
      dbs = Hashtbl.create 4;
      main_db = db_id;
      segs = Int_store.create 64;
      regions = Array.make 1024 None;
      mapped = Page_id.Tbl.create 1024;
      write_set = Page_id.Tbl.create 64;
      forwards = Hashtbl.create 16;
      hooks = Event.hooks_create ();
      policy = Eager;
      fetch_whole_segments = true;
      in_txn = false;
      txn_span = Span.none;
      scratch = Bytes.create page_size;
      scratch_before = Bytes.create page_size;
      fetched = Bytes.create page_size;
      free_images = [];
      stats;
      c =
        { c_txns = Stats.counter stats "session.txns";
          c_commits = Stats.counter stats "session.commits";
          c_swizzles = Stats.counter stats "session.swizzles";
          c_data_faults = Stats.counter stats "session.data_faults";
          c_write_faults = Stats.counter stats "session.write_faults";
          c_callbacks_dropped = Stats.counter stats "session.callbacks_dropped" };
    }
  in
  Bess_obs.Registry.register_gauge "session" "session.cached_segments" (fun () ->
      Int_store.length t.segs);
  Bess_obs.Registry.register_gauge "session" "session.mapped_pages" (fun () ->
      Page_id.Tbl.length t.mapped);
  self := Some t;
  Cache.set_victim_chooser pool (choose_victim t);
  Vmem.set_fault_handler vmem (fun vm ~addr ~access -> handle_fault t vm ~addr ~access);
  attach_db t ?area_ids ~db_id ~catalog ~fetcher ~default_area ();
  t

(* ---- Runtime (trusted) writes to control structures ---- *)

(* Update a byte range of a slotted page on behalf of the runtime: X-lock
   and before-image the page like any update, then write through a
   temporary unprotect window (two counted mprotect calls, section 2.2). *)
let runtime_write t seg ~addr ~width f =
  let ps = page_size t in
  ensure_slotted t seg;
  let first = page_base t addr in
  let last = page_base t (addr + width - 1) in
  let vm = ref first in
  while !vm <= last do
    note_write t (Slotted seg) !vm;
    vm := !vm + ps
  done;
  let npages = page_no t (last - first) + 1 in
  Fun.protect ~finally:(fun () -> invalidate_refs seg) (fun () ->
      Vmem.with_unprotected t.vmem first npages f)

(* Session-local slot fix-up: not a database update, so no lock, no
   write-set entry -- just a brief unprotect window. Used for state whose
   canonical on-disk form is recomputed at load (large-object DPs). *)
let local_slot_write_i64 t seg idx ~field v =
  ensure_slotted t seg;
  let addr = slot_addr seg idx + field in
  let first = page_base t addr in
  let npages = page_no t (page_base t (addr + 8 - 1) - first) + 1 in
  Vmem.with_unprotected t.vmem first npages (fun () -> Vmem.write_i64 t.vmem addr v);
  invalidate_refs seg

let write_slot_u32 t seg idx ~field v =
  let addr = slot_addr seg idx + field in
  runtime_write t seg ~addr ~width:4 (fun () -> Vmem.write_u32 t.vmem addr v)

let write_slot_i64 t seg idx ~field v =
  let addr = slot_addr seg idx + field in
  runtime_write t seg ~addr ~width:8 (fun () -> Vmem.write_i64 t.vmem addr v)

let write_header_u32 t seg ~field v =
  let addr = seg.slotted_base + field in
  runtime_write t seg ~addr ~width:4 (fun () -> Vmem.write_u32 t.vmem addr v)


(* Give up the reserved range, and the frames mapped in it, of the
   large object in slot [idx]. *)
let drop_large_range t seg idx =
  match (Hashtbl.find_opt seg.large_bases idx, Hashtbl.find_opt seg.large_disks idx) with
  | Some base, Some (disk : Seg_addr.t) ->
      for i = 0 to disk.npages - 1 do
        unmap_vm_page t (base + (i * page_size t))
      done;
      remove_region t ~base ~npages:disk.npages;
      Vmem.release t.vmem base disk.npages;
      Hashtbl.remove seg.large_bases idx;
      Hashtbl.remove seg.large_disks idx
  | _ -> ()

(* ---- Transaction lifecycle ---- *)

let begin_txn t =
  if t.in_txn then invalid_arg "Session.begin_txn: transaction already open";
  t.in_txn <- true;
  t.txn_span <- Span.enter ~kind:"session.txn" ();
  (* The primary database's transaction starts eagerly; others start on
     first touch. The primary's server coordinates a distributed commit
     (the paper: "distributed transaction processing ... is performed by
     the first BeSS server the application establishes a connection
     with"). *)
  ignore (txn_for t (main_binding t));
  Stats.bump t.c.c_txns

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

(* Does a word at one of the offsets [refs], from the [k]th on, differ
   between the two images? All 64 bits count. *)
let rec ref_word_changed refs a b k =
  k < Array.length refs
  && (get64 a refs.(k) <> get64 b refs.(k) || ref_word_changed refs a b (k + 1))

let rec unswizzle_ranges t seg refs = function
  | [] -> ()
  | (r : Diff.range) :: rest ->
      unswizzle_refs t seg refs r.before ~from:r.offset;
      unswizzle_refs t seg refs r.after ~from:r.offset;
      unswizzle_ranges t seg refs rest

(* The canonical diff of a write entry's page: its before-image against
   its current content, both in canonical form.

   A data page's before-image is its swizzled frame. While the page's
   reference offsets are the array taken with it and no reference word
   has changed, each reference word holds the same value in both images,
   so the canonical images differ in exactly the bytes the swizzled ones
   do: the two swizzled images are diffed, and only the reference words
   inside the shipped ranges are rewritten. A reference word lies wholly
   inside or wholly outside a range, since a range starts and ends on a
   changed byte. Any other case canonicalises both whole images, the
   before-image with the offsets it was taken with. *)
let page_ranges t we =
  match we.we_region with
  | Data seg when we.we_refs != canonical ->
      let frame = Vmem.frame t.vmem we.we_vm in
      let refs = (ref_map t seg).(data_page_idx t seg we.we_vm) in
      if refs == we.we_refs && not (ref_word_changed refs we.we_before frame 0) then begin
        let ranges = Diff.ranges ~before:we.we_before ~after:frame () in
        unswizzle_ranges t seg refs ranges;
        ranges
      end
      else begin
        Bytes.blit we.we_before 0 t.scratch_before 0 (page_size t);
        unswizzle_refs t seg we.we_refs t.scratch_before ~from:0;
        Bytes.blit frame 0 t.scratch 0 (page_size t);
        unswizzle_refs t seg refs t.scratch ~from:0;
        Diff.ranges ~before:t.scratch_before ~after:t.scratch ()
      end
  | Data _ | Slotted _ | Large _ ->
      unswizzle_page_into t we.we_region we.we_vm t.scratch;
      Diff.ranges ~before:we.we_before ~after:t.scratch ()

let updates_by_db t =
  let per_db = Hashtbl.create 4 in
  Page_id.Tbl.iter
    (fun _ we ->
      let db =
        match we.we_region with Slotted s | Data s | Large (s, _) -> s.db_id
      in
      let ranges = page_ranges t we in
      let acc = try Hashtbl.find per_db db with Not_found -> [] in
      Hashtbl.replace per_db db
        (List.fold_left
           (fun acc (r : Diff.range) ->
             { Server.page = we.we_page; offset = r.offset; before = r.before; after = r.after }
             :: acc)
           acc ranges))
    t.write_set;
  (* Built newest first, in time linear in the updates (appending each
     page's list copied the whole prefix: a 1,200-page commit promoted
     half a gigabyte). Each database gets them in write-set order. *)
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) per_db;
  per_db

(* Return a write entry's before-image to the free list, if it is ours. *)
let recycle_image t we = if we.we_owned then t.free_images <- we.we_before :: t.free_images

let finish_write_set t ~keep_frames =
  Page_id.Tbl.iter
    (fun page_id we ->
      recycle_image t we;
      (match Cache.find_slot t.pool page_id with
      | Some slot -> if slot.Cache.pins > 0 then slot.Cache.pins <- slot.Cache.pins - 1
      | None -> ());
      if keep_frames then begin
        if Vmem.is_mapped t.vmem we.we_vm then Vmem.set_prot t.vmem we.we_vm 1 Vmem.Prot_read
      end)
    t.write_set;
  Page_id.Tbl.reset t.write_set

exception Distributed_abort

(* Commit through the fetcher's synchronous commit: durable before
   return. Multi-database commits run 2PC, and the coordinator's
   decision is durable before phase 2. *)
let commit t =
  if not t.in_txn then invalid_arg "Session.commit: no transaction open";
  let per_db = updates_by_db t in
  (* Single-database fast path; multi-database commits run 2PC with the
     main database's server as coordinator. *)
  let active =
    Hashtbl.fold (fun db b acc -> match b.b_txn with Some tx -> (db, b, tx) :: acc | None -> acc)
      t.dbs []
  in
  let updates_for db = try Hashtbl.find per_db db with Not_found -> [] in
  (match active with
  | [] -> ()
  | [ (db, b, tx) ] -> b.b_fetcher.f_commit ~txn:tx (updates_for db)
  | _ ->
      let coordinator, participants =
        match List.partition (fun (db, _, _) -> db = t.main_db) active with
        | [ c ], ps -> (c, ps)
        | _ -> failwith "Session.commit: no coordinator binding"
      in
      (* Phase 1: prepare every participant. *)
      let votes =
        List.map
          (fun (db, b, tx) -> b.b_fetcher.f_prepare ~txn:tx ~coordinator:t.main_db
              (updates_for db))
          participants
      in
      if List.for_all (fun v -> v = `Vote_yes) votes then begin
        (* Decision: commit locally (the coordinator's commit record is
           the decision record), then phase 2. *)
        let _, cb, ctx = coordinator in
        cb.b_fetcher.f_commit ~txn:ctx (updates_for t.main_db);
        List.iter (fun (_, b, tx) -> b.b_fetcher.f_decide ~txn:tx `Commit) participants
      end
      else begin
        let _, cb, ctx = coordinator in
        cb.b_fetcher.f_abort ~txn:ctx;
        List.iter
          (fun ((_, b, tx), vote) ->
            if vote = `Vote_yes then b.b_fetcher.f_decide ~txn:tx `Abort)
          (List.combine participants votes);
        Hashtbl.iter (fun _ b -> b.b_txn <- None) t.dbs;
        t.in_txn <- false;
        finish_write_set t ~keep_frames:true;
        Span.finish ~attrs:[ ("outcome", "abort") ] t.txn_span;
        t.txn_span <- Span.none;
        raise Distributed_abort
      end);
  Hashtbl.iter (fun _ b -> b.b_txn <- None) t.dbs;
  t.in_txn <- false;
  finish_write_set t ~keep_frames:true;
  Span.finish ~attrs:[ ("outcome", "commit") ] t.txn_span;
  t.txn_span <- Span.none;
  Event.fire t.hooks (Txn_commit { txn = 0 });
  Stats.bump t.c.c_commits

(* Abort: restore every dirtied frame from its before-image, then
   release server-side state. A data page's image is its frame at the
   first write, and a large-object page's is raw bytes, so both come back
   by a copy. A forced data image is canonical, which is a valid mapped
   form too (the On_deref policy maps such pages). A slot page's image is
   in disk form, so its DPs are rebased to the mapping again. *)
let restore_frame t we =
  if Vmem.is_mapped t.vmem we.we_vm then begin
    let frame = Vmem.frame t.vmem we.we_vm in
    Bytes.blit we.we_before 0 frame 0 (Bytes.length we.we_before);
    match we.we_region with
    | Data _ | Large _ -> ()
    | Slotted seg ->
        invalidate_refs seg;
        convert_slot_page t seg frame ~page_idx:(page_no t (we.we_vm - seg.slotted_base))
          ~n_slots:(read_header_u32 t seg ~field:Layout.hdr_n_slots) ~last_base:0 Mapped
  end

let abort t =
  if not t.in_txn then invalid_arg "Session.abort: no transaction open";
  Page_id.Tbl.iter (fun _ we -> restore_frame t we) t.write_set;
  let restored =
    Page_id.Tbl.fold
      (fun _ we acc -> match we.we_region with Slotted seg -> seg :: acc | _ -> acc)
      t.write_set []
  in
  Hashtbl.iter
    (fun _ b ->
      match b.b_txn with
      | Some tx ->
          b.b_fetcher.f_abort ~txn:tx;
          b.b_txn <- None
      | None -> ())
    t.dbs;
  t.in_txn <- false;
  finish_write_set t ~keep_frames:true;
  (* Large objects whose creation the abort undid give up their ranges,
     now that their pages are no longer pinned by the write set. *)
  List.iter
    (fun seg ->
      Hashtbl.fold
        (fun idx _ acc ->
          if read_slot_u32 t seg idx ~field:Layout.slot_flags land Layout.flag_large = 0
          then idx :: acc
          else acc)
        seg.large_bases []
      |> List.iter (drop_large_range t seg))
    restored;
  Span.finish ~attrs:[ ("outcome", "abort") ] t.txn_span;
  t.txn_span <- Span.none;
  Event.fire t.hooks (Txn_abort { txn = 0 });
  Bess_util.Stats.incr t.stats "session.aborts"

let with_txn t f =
  begin_txn t;
  match f () with
  | v ->
      commit t;
      v
  | exception e ->
      if t.in_txn then abort t;
      raise e

(* ---- Segment creation ---- *)

let create_segment t ?db_id ?area ~slotted_pages ~data_pages () =
  let db_id = Option.value ~default:t.main_db db_id in
  let b = binding t db_id in
  let area = Option.value ~default:b.b_default_area area in
  let txn = txn_for t b in
  let ps = page_size t in
  let seg_id = Catalog.fresh_seg_id b.b_catalog in
  let slotted_disk = b.b_fetcher.f_alloc_segment ~area ~npages:slotted_pages in
  let data_disk = b.b_fetcher.f_alloc_segment ~area ~npages:data_pages in
  Catalog.add_segment b.b_catalog ~seg_id slotted_disk;
  let seg = get_seg t ~db_id ~seg_id in
  seg.data_disk <- data_disk;
  ensure_data_range t seg;
  (* Fabricate the image locally: the disk pages are zeroed by the
     allocator, so zero frames mirror the authoritative state. *)
  let zeros = Bytes.make ps '\000' in
  for i = 0 to slotted_pages - 1 do
    let page_id = { Page_id.area = slotted_disk.area; page = slotted_disk.first_page + i } in
    b.b_fetcher.f_lock ~txn
      (Lock_mgr.page_resource ~area:page_id.area ~page:page_id.page)
      Lock_mode.X;
    ignore (map_frame t page_id (seg.slotted_base + (i * ps)) zeros ~pin:true
              ~prot:Prot_read)
  done;
  for i = 0 to data_pages - 1 do
    let page_id = { Page_id.area = data_disk.area; page = data_disk.first_page + i } in
    ignore (map_frame t page_id (seg.data_base + (i * ps)) zeros ~pin:false
              ~prot:Prot_read)
  done;
  seg.slotted_present <- true;
  (* Write the header through the runtime path so it lands in the write
     set and ships at commit. *)
  let hdr = Bytes.make Layout.header_size '\000' in
  Layout.Raw.init_header hdr ~db_id ~seg_id ~n_slots:0 ~data_disk
    ~overflow_disk:{ area = 0; first_page = 0; npages = 0 };
  (* The canonical image keeps last_data_base = 0; the live frame wants
     the current mapping base. *)
  runtime_write t seg ~addr:seg.slotted_base ~width:Layout.header_size (fun () ->
      Vmem.write_bytes t.vmem seg.slotted_base hdr;
      Vmem.write_i64 t.vmem (seg.slotted_base + Layout.hdr_last_data_base) seg.data_base);
  Bess_util.Stats.incr t.stats "session.segments_created";
  seg

(* ---- Object lifecycle ---- *)

let align8 n = (n + 7) land lnot 7

(* Pop a slot from the free chain, or extend the high-water mark. *)
let alloc_slot t seg =
  ensure_slotted t seg;
  let free_head = read_header_u32 t seg ~field:Layout.hdr_free_slot_head in
  if free_head <> 0xFFFFFFFF then begin
    let next = read_slot_u32 t seg free_head ~field:Layout.slot_aux in
    write_header_u32 t seg ~field:Layout.hdr_free_slot_head next;
    free_head
  end
  else begin
    let n = read_header_u32 t seg ~field:Layout.hdr_n_slots in
    if n >= seg.capacity then raise (Segment_full { seg = seg.seg_id });
    write_header_u32 t seg ~field:Layout.hdr_n_slots (n + 1);
    n
  end

(* Bump-allocate [size] bytes in the data segment. *)
let alloc_data t seg size =
  let used = read_header_u32 t seg ~field:Layout.hdr_data_used in
  let off = align8 used in
  let cap = seg.data_disk.npages * page_size t in
  if off + size > cap then raise (Segment_full { seg = seg.seg_id });
  write_header_u32 t seg ~field:Layout.hdr_data_used (off + size);
  off

let create_object t seg (ty : Type_desc.t) ~size =
  if size > Layout.transparent_large_limit then
    invalid_arg "Session.create_object: beyond the transparent large-object limit";
  let idx = alloc_slot t seg in
  let off = alloc_data t seg size in
  write_slot_u32 t seg idx ~field:Layout.slot_type ty.id;
  write_slot_i64 t seg idx ~field:Layout.slot_dp (seg.data_base + off);
  write_slot_u32 t seg idx ~field:Layout.slot_objsize size;
  write_slot_u32 t seg idx ~field:Layout.slot_flags Layout.flag_used;
  write_slot_i64 t seg idx ~field:Layout.slot_lock 0;
  (* Zero the object bytes through the user path: the write fault takes
     the X lock and the before-image. *)
  if size > 0 then Vmem.write_bytes t.vmem (seg.data_base + off) (Bytes.make size '\000');
  Bess_util.Stats.incr t.stats "session.objects_created";
  slot_addr seg idx

(* ---- Object accessors (the ref<T> dereference surface) ---- *)

let seg_of_slot t addr = unswizzle_addr t addr

(* DP: the object's data address; dereferencing faults segments in. *)
let data_ptr t addr =
  let seg, idx = seg_of_slot t addr in
  let dp = read_slot_i64 t seg idx ~field:Layout.slot_dp in
  (* Touching the data realises wave 3 lazily through the fault handler
     on actual access; DP itself is already a valid reserved address. *)
  ignore idx;
  dp

let obj_size t addr =
  let seg, idx = seg_of_slot t addr in
  read_slot_u32 t seg idx ~field:Layout.slot_objsize

let obj_type t addr =
  let seg, idx = seg_of_slot t addr in
  let ty_id = read_slot_u32 t seg idx ~field:Layout.slot_type in
  Type_desc.find (Catalog.types (binding t seg.db_id).b_catalog) ty_id

let obj_flags t addr =
  let seg, idx = seg_of_slot t addr in
  read_slot_u32 t seg idx ~field:Layout.slot_flags

let is_used t addr = obj_flags t addr land Layout.flag_used <> 0

(* ---- OIDs, roots, forwards ---- *)

let oid_of t addr =
  let seg, idx = seg_of_slot t addr in
  let uniq = read_slot_u32 t seg idx ~field:Layout.slot_uniq in
  let b = binding t seg.db_id in
  Oid.make ~host:(Catalog.host b.b_catalog) ~db:seg.db_id ~seg:seg.seg_id ~slot:idx ~uniq

(* global_ref<T>: resolve an OID, validating the uniquifier ("somewhat
   slower compared to" plain refs -- measured in experiment E1). *)
let by_oid t (oid : Oid.t) =
  let seg = get_seg t ~db_id:oid.db ~seg_id:oid.seg in
  ensure_slotted t seg;
  let flags = read_slot_u32 t seg oid.slot ~field:Layout.slot_flags in
  let uniq = read_slot_u32 t seg oid.slot ~field:Layout.slot_uniq in
  if flags land Layout.flag_used = 0 || uniq <> oid.uniq then raise (Stale_oid oid);
  slot_addr seg oid.slot

(* Names live in the directory of the *object's own* database ("any BeSS
   object can be given a name"); lookup searches the main database first,
   then every attached one. *)
let set_root t ~name addr =
  let seg, _ = seg_of_slot t addr in
  Catalog.set_root (binding t seg.db_id).b_catalog ~name (oid_of t addr)

let root t name =
  let find db_id =
    Option.map (by_oid t) (Catalog.find_root (binding t db_id).b_catalog name)
  in
  match find t.main_db with
  | Some _ as r -> r
  | None ->
      Hashtbl.fold
        (fun db_id _ acc ->
          match acc with Some _ -> acc | None -> if db_id = t.main_db then None else find db_id)
        t.dbs None

let remove_root t ?db_id ~name () =
  let db_id = Option.value ~default:t.main_db db_id in
  Catalog.remove_root_by_name (binding t db_id).b_catalog name

(* Forward objects: the level of indirection for inter-database
   references (section 2.1). The forward object lives in the referencing
   database and its data is the OID of the referenced object. *)
let forward_type_name = "__bess_forward"

let forward_type t db_id =
  let types = Catalog.types (binding t db_id).b_catalog in
  match Type_desc.find_by_name types forward_type_name with
  | Some ty -> ty
  | None -> Type_desc.register types ~name:forward_type_name ~size:16 ~ref_offsets:[||]

let forward_seg t db_id =
  let b = binding t db_id in
  match b.b_forward_seg with
  | Some seg_id -> get_seg t ~db_id ~seg_id
  | None ->
      let seg = create_segment t ~db_id ~slotted_pages:1 ~data_pages:4 () in
      b.b_forward_seg <- Some seg.seg_id;
      seg

let make_forward t ~src_db target_oid =
  let key = (src_db, Oid.hash target_oid) in
  match Hashtbl.find_opt t.forwards key with
  | Some addr when is_used t addr -> addr
  | _ ->
      let seg = forward_seg t src_db in
      let ty = forward_type t src_db in
      let addr = create_object t seg ty ~size:16 in
      let dp = data_ptr t addr in
      let b = Bytes.make 16 '\000' in
      Oid.encode b 0 target_oid;
      Vmem.write_bytes t.vmem dp b;
      let rt, idx = seg_of_slot t addr in
      write_slot_u32 t rt idx ~field:Layout.slot_flags
        (Layout.flag_used lor Layout.flag_forward);
      Hashtbl.replace t.forwards key addr;
      Bess_util.Stats.incr t.stats "session.forwards_created";
      addr

(* Chase a forward object to the slot it names, transparently. *)
let rec follow_forward t addr =
  let seg = slot_seg t addr in
  let idx = slot_index seg addr in
  let flags = read_slot_u32 t seg idx ~field:Layout.slot_flags in
  if flags land Layout.flag_forward = 0 then addr
  else begin
    let dp = read_slot_i64 t seg idx ~field:Layout.slot_dp in
    let oid = Oid.decode (Vmem.read_bytes t.vmem dp 12) 0 in
    Bess_util.Stats.incr t.stats "session.forward_chases";
    follow_forward t (by_oid t oid)
  end

(* ---- Typed reference fields ---- *)

(* Read a reference field at [data_addr]: returns the target's slot
   address, resolving lazily unswizzled values (the On_deref policy) and
   chasing forward objects. *)
let read_ref t ~data_addr =
  let v = Vmem.read_i64 t.vmem data_addr in
  if v = 0 then None
  else if not (Layout.is_unswizzled v) then Some (follow_forward t v)
  else begin
    let db_id =
      match region_at t data_addr with
      | Some (Data s) | Some (Large (s, _)) | Some (Slotted s) -> s.db_id
      | None -> invalid_arg "Session.read_ref: address outside any region"
    in
    let target = get_seg t ~db_id ~seg_id:(Layout.unswizzled_seg v) in
    Bess_util.Stats.incr t.stats "session.deref_swizzles";
    Some (follow_forward t (slot_addr target (Layout.unswizzled_slot v)))
  end

(* Store a reference field: same-database targets store the swizzled slot
   address; cross-database targets go through a forward object,
   transparently. *)
let write_ref t ~data_addr target =
  match target with
  | None -> Vmem.write_i64 t.vmem data_addr 0
  | Some target_addr ->
      let src_db =
        match region_at t data_addr with
        | Some (Data s) | Some (Large (s, _)) -> s.db_id
        | _ -> invalid_arg "Session.write_ref: address is not object data"
      in
      let tgt_seg, _ = seg_of_slot t target_addr in
      let stored =
        if tgt_seg.db_id = src_db then target_addr
        else make_forward t ~src_db (oid_of t target_addr)
      in
      Vmem.write_i64 t.vmem data_addr (Layout.ref_encode (Swizzled stored))

(* ---- Deletion ---- *)

let delete_object t addr =
  let seg, idx = seg_of_slot t addr in
  let b = binding t seg.db_id in
  Catalog.remove_root_by_oid b.b_catalog (oid_of t addr);
  (match Hashtbl.find_opt seg.large_disks idx with
  | Some disk when read_slot_u32 t seg idx ~field:Layout.slot_flags land Layout.flag_large <> 0 ->
      b.b_fetcher.f_free_segment disk;
      drop_large_range t seg idx
  | Some _ | None -> ());
  let uniq = read_slot_u32 t seg idx ~field:Layout.slot_uniq in
  let free_head = read_header_u32 t seg ~field:Layout.hdr_free_slot_head in
  write_slot_u32 t seg idx ~field:Layout.slot_flags 0;
  write_slot_u32 t seg idx ~field:Layout.slot_uniq (uniq + 1);
  write_slot_u32 t seg idx ~field:Layout.slot_aux free_head;
  write_header_u32 t seg ~field:Layout.hdr_free_slot_head idx;
  Bess_util.Stats.incr t.stats "session.objects_deleted"

(* ---- Transparent large objects (fixed size, up to 64KB) ---- *)

let create_large_object t seg ~size =
  if size > Layout.transparent_large_limit then
    invalid_arg "Session.create_large_object: size above 64KB; use the Lob interface";
  let b = binding t seg.db_id in
  let ps = page_size t in
  let npages = (size + ps - 1) / ps in
  let disk = b.b_fetcher.f_alloc_segment ~area:b.b_default_area ~npages in
  let idx = alloc_slot t seg in
  (* The slot's table entry (aux) records nothing on disk beyond the
     descriptor stored in the data segment: a 12-byte segment address. *)
  let desc_off = alloc_data t seg Seg_addr.encoded_size in
  let desc = Bytes.create Seg_addr.encoded_size in
  Seg_addr.encode desc 0 disk;
  Vmem.write_bytes t.vmem (seg.data_base + desc_off) desc;
  write_slot_u32 t seg idx ~field:Layout.slot_type Type_desc.bytes_type.id;
  write_slot_i64 t seg idx ~field:Layout.slot_dp 0;
  write_slot_u32 t seg idx ~field:Layout.slot_objsize size;
  write_slot_u32 t seg idx ~field:Layout.slot_flags (Layout.flag_used lor Layout.flag_large);
  write_slot_u32 t seg idx ~field:Layout.slot_aux desc_off;
  (* Reserve and pre-map zero frames: a fresh object is all zeros and
     writable after the usual write faults. *)
  let base = Vmem.reserve t.vmem npages in
  Hashtbl.replace seg.large_bases idx base;
  Hashtbl.replace seg.large_disks idx disk;
  add_region t ~base ~npages (Large (seg, idx));
  let zeros = Bytes.make ps '\000' in
  for i = 0 to npages - 1 do
    let page_id = { Page_id.area = disk.area; page = disk.first_page + i } in
    ignore (map_frame t page_id (base + (i * ps)) zeros ~pin:false
              ~prot:Prot_read)
  done;
  write_slot_i64 t seg idx ~field:Layout.slot_dp base;
  Bess_util.Stats.incr t.stats "session.large_created";
  slot_addr seg idx

(* Resolve a large object's mapped range on first access after a fresh
   slotted fetch (its DP canonicalises to 0 on disk). *)
let large_data_ptr t addr =
  let seg, idx = seg_of_slot t addr in
  let dp = read_slot_i64 t seg idx ~field:Layout.slot_dp in
  if dp <> 0 then dp
  else begin
    let desc_off = read_slot_u32 t seg idx ~field:Layout.slot_aux in
    let desc = Vmem.read_bytes t.vmem (seg.data_base + desc_off) Seg_addr.encoded_size in
    let disk = Seg_addr.decode desc 0 in
    let size = read_slot_u32 t seg idx ~field:Layout.slot_objsize in
    let ps = page_size t in
    let npages = Stdlib.max disk.npages ((size + ps - 1) / ps) in
    let base = Vmem.reserve t.vmem npages in
    Hashtbl.replace seg.large_bases idx base;
    Hashtbl.replace seg.large_disks idx disk;
    add_region t ~base ~npages (Large (seg, idx));
    (* Runtime slot update: DP now points at the reserved range; pages
       fault in on demand ("the actual object data may be fetched ...
       dynamically as pages in the object's reserved address range are
       being accessed"). This is session-local state -- the canonical
       on-disk DP of a large object stays 0 -- so it is written without
       locking or logging. *)
    local_slot_write_i64 t seg idx ~field:Layout.slot_dp base;
    base
  end

(* Unified data pointer: transparent for small and large objects alike. *)
let obj_data t addr =
  let seg = slot_seg t addr in
  let idx = slot_index seg addr in
  let flags = read_slot_u32 t seg idx ~field:Layout.slot_flags in
  if flags land Layout.flag_large <> 0 then large_data_ptr t addr
  else read_slot_i64 t seg idx ~field:Layout.slot_dp

(* ---- Reorganisation support (used by {!Reorg}) ---- *)

(* Change a resident page's disk identity in place (relocation: same
   frame, same VM address, new disk segment). *)
let rekey_page t ~old_page ~new_page ~vm =
  Cache.rekey t.pool ~old_page ~new_page;
  Page_id.Tbl.remove t.mapped old_page;
  Page_id.Tbl.replace t.mapped new_page vm;
  match Page_id.Tbl.find_opt t.write_set old_page with
  | Some we ->
      Page_id.Tbl.remove t.write_set old_page;
      Page_id.Tbl.replace t.write_set new_page { we with we_page = new_page }
  | None -> ()

(* Force a page into the write set with an explicit before-image (used
   when the authoritative content is known to be freshly zeroed). The
   image stays the caller's (it may be a shared zero page): it is never
   recycled. *)
let force_full_write t region vm ~page_id ~before =
  let entry =
    { we_page = page_id; we_vm = vm; we_region = region; we_before = before; we_refs = canonical;
      we_owned = false }
  in
  match Page_id.Tbl.find_opt t.write_set page_id with
  | Some old ->
      recycle_image t old;
      Page_id.Tbl.replace t.write_set page_id entry
  | None ->
      let db = match region with Slotted s | Data s | Large (s, _) -> s.db_id in
      let b = binding t db in
      let txn = txn_for t b in
      b.b_fetcher.f_lock ~txn
        (Lock_mgr.page_resource ~area:page_id.area ~page:page_id.page)
        Lock_mode.X;
      (match Cache.find_slot t.pool page_id with
      | Some slot -> slot.Cache.pins <- slot.Cache.pins + 1
      | None -> ());
      Page_id.Tbl.replace t.write_set page_id entry

(* Write a segment address field of the slotted header (runtime path). *)
let write_header_seg_addr t seg ~field addr =
  let buf = Bytes.create Seg_addr.encoded_size in
  Seg_addr.encode buf 0 addr;
  let vm_addr = seg.slotted_base + field in
  runtime_write t seg ~addr:vm_addr ~width:Seg_addr.encoded_size (fun () ->
      Vmem.write_bytes t.vmem vm_addr buf)

(* Reserve a fresh VM range for a data segment about to replace the
   current one (resize); the caller moves mappings then swaps bases. *)
let reserve_data_range t seg ~(disk : Seg_addr.t) =
  let base = Vmem.reserve t.vmem disk.npages in
  add_region t ~base ~npages:disk.npages (Data seg);
  base

(* Move a resident frame to a new VM address and disk identity. *)
let move_mapping t ~old_page ~new_page ~old_vm ~new_vm =
  if not (Vmem.is_mapped t.vmem old_vm) then
    invalid_arg "Session.move_mapping: page not resident";
  let frame = Vmem.frame t.vmem old_vm in
  Cache.rekey t.pool ~old_page ~new_page;
  Page_id.Tbl.remove t.mapped old_page;
  Page_id.Tbl.remove t.write_set old_page;
  Vmem.unmap t.vmem old_vm;
  Vmem.map t.vmem new_vm frame;
  Vmem.set_prot t.vmem new_vm 1 Vmem.Prot_read;
  Page_id.Tbl.replace t.mapped new_page new_vm;
  match Cache.find_slot t.pool new_page with
  | Some slot -> t.slot_vm.(slot.Cache.index) <- new_vm
  | None -> ()

(* Map a zeroed frame at [vm] for a brand-new page. *)
let map_zero_page t page_id vm =
  let zeros = Bytes.make (page_size t) '\000' in
  ignore (map_frame t page_id vm zeros ~pin:false ~prot:Prot_read)

(* Return an abandoned data range to the address-space pool. *)
let release_data_range t _seg ~base ~npages =
  let ps = page_size t in
  for i = 0 to npages - 1 do
    if Vmem.is_mapped t.vmem (base + (i * ps)) then Vmem.unmap t.vmem (base + (i * ps))
  done;
  remove_region t ~base ~npages;
  Vmem.release t.vmem base npages

(* ---- Cache control ---- *)

let in_txn t = t.in_txn

(* Drop every cached page. Models a client whose cache does not survive
   transactions (the no-inter-transaction-caching baseline of experiment
   E8, and the paper's bare clients "data and locks are cached only
   during the duration of a transaction"). *)
let drop_all_cached t =
  if t.in_txn then invalid_arg "Session.drop_all_cached: transaction open";
  let pages = Page_id.Tbl.fold (fun pid _ acc -> pid :: acc) t.mapped [] in
  List.iter (fun pid -> drop_cached_page t pid) pages

(* The hot dereference path: field value -> target slot -> DP. Two memory
   accesses and no table lookup -- this is exactly what swizzling buys
   (section 2.1). The general path ({!read_ref} + {!obj_data}) also
   validates forward and large-object flags; this fast accessor covers
   the common case a compiler-inlined ref<T> dereference hits: a plain
   small object in the same database. Falls back to the general path on
   anything else. *)
let deref_data_fast t ~data_addr =
  let v = Vmem.read_i64 t.vmem data_addr in
  if v = 0 then None
  else if v land 1 = 0 then Some (Vmem.read_i64 t.vmem (v + Layout.slot_dp))
  else
    match read_ref t ~data_addr with
    | Some slot -> Some (obj_data t slot)
    | None -> None

(* ---- Object-level locking (section 2.3) ----

   "Notice that hardware based detection works only for granules that are
   integral multiples of the page size ... We are currently examining
   issues related to object level locking. Object level locking is
   realized by following a software-based approach."

   These explicit locks live in a namespace orthogonal to the page locks
   the write faults take: applications whose objects share hot pages can
   serialise on objects instead of (or in addition to) pages. Strict 2PL
   still applies -- object locks release with the transaction. *)

let object_lock_resource seg idx =
  Lock_mgr.object_resource ~db:seg.db_id ~slot:((seg.seg_id lsl 16) lor idx)

(* Acquire an explicit object lock; raises {!Fetcher.Would_block} /
   {!Fetcher.Deadlock_abort} like any lock request. *)
let lock_object t addr mode =
  let seg, idx = seg_of_slot t addr in
  let b = binding t seg.db_id in
  let txn = txn_for t b in
  b.b_fetcher.f_lock ~txn (object_lock_resource seg idx) mode;
  Bess_util.Stats.incr t.stats "session.object_locks"

(* [with_object_write t addr f]: the software update protocol the paper
   contrasts with hardware detection -- X-lock the object, then run the
   update. The page-level machinery still guarantees correctness if the
   caller forgets; the object lock only adds finer-grained mutual
   exclusion. *)
let with_object_write t addr f =
  lock_object t addr Lock_mode.X;
  f (obj_data t addr)
