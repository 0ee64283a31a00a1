(* On-the-fly database reorganisation (section 2.1).

   "Databases can be re-organized on the fly without affecting object
   references. Reorganization includes compaction, resizing, or relocation
   of data segments and movement of entire files between storage areas."

   The mechanics rest on the indirection the paper builds in: references
   point at slots, slots point at data through DP, and the data segment's
   disk address lives only in the slotted header. So:

   - {!relocate_data_segment} changes where the data bytes live on disk;
     no reference and no DP changes at all.
   - {!compact_data_segment} slides objects together inside the segment;
     only DPs change, references are untouched.
   - {!resize_data_segment} moves the data to a larger disk segment and a
     larger VM range; DPs are rebased with the same two arithmetic
     operations a slotted fault uses.
   - {!move_file} relocates every segment of a file to another area and
     rebinds the file there for future growth.

   Every operation runs as its own transaction through the ordinary WAL
   commit path, so a crash mid-reorganisation recovers to one side. The
   number of *references* fixed is zero by construction -- the property
   experiment E6 measures against a physical-OID baseline. *)

module Vmem = Bess_vmem.Vmem
module Page_id = Bess_cache.Page_id
module Seg_addr = Bess_storage.Seg_addr

(* Touch every data page so the whole segment is resident and mapped. *)
let ensure_data_resident s (seg : Session.seg_rt) =
  Session.ensure_slotted s seg;
  let ps = Session.page_size s in
  for idx = 0 to seg.data_disk.npages - 1 do
    ignore (Vmem.read_u8 (Session.mem s) (seg.data_base + (idx * ps)))
  done

(* Move the data segment of [seg] to [to_area] (same size). References,
   DPs and VM mappings are untouched; only the disk address changes.
   Runs its own transaction; the old disk segment is freed after commit. *)
let relocate_data_segment s (seg : Session.seg_rt) ~to_area =
  Session.begin_txn s;
  ensure_data_resident s seg;
  let b = Session.binding s seg.db_id in
  let old_disk = seg.data_disk in
  let new_disk = b.b_fetcher.f_alloc_segment ~area:to_area ~npages:old_disk.npages in
  let ps = Session.page_size s in
  (* Re-key every resident data page to its new disk identity, then force
     full-page writes against zeroed before-images (the allocator zeroes
     fresh segments). *)
  seg.data_disk <- new_disk;
  for idx = 0 to old_disk.npages - 1 do
    let old_page = { Page_id.area = old_disk.area; page = old_disk.first_page + idx } in
    let new_page = { Page_id.area = new_disk.area; page = new_disk.first_page + idx } in
    let vm = seg.data_base + (idx * ps) in
    Session.rekey_page s ~old_page ~new_page ~vm;
    Session.force_full_write s (Session.Data seg) vm ~page_id:new_page
      ~before:(Bytes.make ps '\000')
  done;
  (* The slotted header records the new data segment address. *)
  Session.write_header_seg_addr s seg ~field:Layout.hdr_data_disk new_disk;
  Session.commit s;
  b.b_fetcher.f_free_segment old_disk;
  Bess_util.Stats.incr (Session.stats s) "reorg.relocations";
  Bess_util.Stats.add (Session.stats s) "reorg.pages_moved" old_disk.npages

(* Compact the data segment: slide live objects down over the holes left
   by deletions. Only DPs (and large-object descriptor offsets) change.
   Returns bytes reclaimed. *)
let compact_data_segment s (seg : Session.seg_rt) =
  Session.begin_txn s;
  ensure_data_resident s seg;
  let vm = Session.mem s in
  let n = Session.read_header_u32 s seg ~field:Layout.hdr_n_slots in
  (* Every live extent of the data segment in ascending offset order,
     with the slot field that locates it: a data DP, or the offset of a
     transparent large object's descriptor in [slot_aux]. *)
  let extents = ref [] in
  for idx = 0 to n - 1 do
    let flags = Session.read_slot_u32 s seg idx ~field:Layout.slot_flags in
    if Layout.has_data_dp flags then begin
      let dp = Session.read_slot_i64 s seg idx ~field:Layout.slot_dp in
      let size = Session.read_slot_u32 s seg idx ~field:Layout.slot_objsize in
      extents := (dp - seg.data_base, size, idx, `Dp) :: !extents
    end
    else if flags land Layout.flag_used <> 0 then
      extents :=
        (Session.read_slot_u32 s seg idx ~field:Layout.slot_aux, Seg_addr.encoded_size, idx, `Aux)
        :: !extents
  done;
  let align8 v = (v + 7) land lnot 7 in
  let cursor = ref 0 in
  List.iter
    (fun (old_off, size, idx, field) ->
      let new_off = align8 !cursor in
      if new_off < old_off then begin
        (* Moving downward is always safe in ascending order. The write
           faults engage locking and logging as usual. *)
        let bytes = Vmem.read_bytes vm (seg.data_base + old_off) size in
        Vmem.write_bytes vm (seg.data_base + new_off) bytes;
        match field with
        | `Dp -> Session.write_slot_i64 s seg idx ~field:Layout.slot_dp (seg.data_base + new_off)
        | `Aux -> Session.write_slot_u32 s seg idx ~field:Layout.slot_aux new_off
      end;
      cursor := new_off + size)
    (List.sort compare !extents);
  let old_used = Session.read_header_u32 s seg ~field:Layout.hdr_data_used in
  let new_used = !cursor in
  (* Zero the freed tail through the logged write path: a later object
     allocated over it must not find stale bytes where its references
     go. *)
  if new_used < old_used then
    Vmem.write_bytes vm (seg.data_base + new_used) (Bytes.make (old_used - new_used) '\000');
  Session.write_header_u32 s seg ~field:Layout.hdr_data_used new_used;
  Session.commit s;
  Bess_util.Stats.incr (Session.stats s) "reorg.compactions";
  old_used - new_used

(* Grow (or shrink, if contents fit) the data segment to [new_pages].
   The data moves to a new disk segment and a new VM range; every DP is
   rebased by the same two arithmetic operations as a slotted fault. *)
let resize_data_segment s (seg : Session.seg_rt) ~new_pages =
  let used = ref 0 in
  Session.begin_txn s;
  ensure_data_resident s seg;
  used := Session.read_header_u32 s seg ~field:Layout.hdr_data_used;
  let ps = Session.page_size s in
  if !used > new_pages * ps then invalid_arg "Reorg.resize: contents do not fit";
  let b = Session.binding s seg.db_id in
  let old_disk = seg.data_disk in
  let old_base = seg.data_base in
  let new_disk = b.b_fetcher.f_alloc_segment ~area:old_disk.area ~npages:new_pages in
  let new_base = Session.reserve_data_range s seg ~disk:new_disk in
  let copy_pages = Stdlib.min old_disk.npages new_pages in
  (* Move the live frames to the new VM range and new disk identity. *)
  for idx = 0 to copy_pages - 1 do
    let old_vm = old_base + (idx * ps) in
    let new_vm = new_base + (idx * ps) in
    let old_page = { Page_id.area = old_disk.area; page = old_disk.first_page + idx } in
    let new_page = { Page_id.area = new_disk.area; page = new_disk.first_page + idx } in
    Session.move_mapping s ~old_page ~new_page ~old_vm ~new_vm;
    Session.force_full_write s (Session.Data seg) new_vm ~page_id:new_page
      ~before:(Bytes.make ps '\000')
  done;
  (* Fresh tail pages of a grown segment: zero frames, writable later. *)
  for idx = copy_pages to new_pages - 1 do
    let new_page = { Page_id.area = new_disk.area; page = new_disk.first_page + idx } in
    Session.map_zero_page s new_page (new_base + (idx * ps))
  done;
  (* Two arithmetic operations per DP, exactly the slotted-fault fix-up. *)
  let delta = new_base - old_base in
  let n = Session.read_header_u32 s seg ~field:Layout.hdr_n_slots in
  for idx = 0 to n - 1 do
    if Layout.has_data_dp (Session.read_slot_u32 s seg idx ~field:Layout.slot_flags) then begin
      let dp = Session.read_slot_i64 s seg idx ~field:Layout.slot_dp in
      Session.write_slot_i64 s seg idx ~field:Layout.slot_dp (dp + delta)
    end
  done;
  Session.release_data_range s seg ~base:old_base ~npages:old_disk.npages;
  seg.data_disk <- new_disk;
  Session.set_data_base seg new_base;
  Session.write_header_seg_addr s seg ~field:Layout.hdr_data_disk new_disk;
  Session.commit s;
  b.b_fetcher.f_free_segment old_disk;
  Bess_util.Stats.incr (Session.stats s) "reorg.resizes"

(* Move a whole file's object data to another storage area and rebind the
   file there (growth lands in the new area too). *)
let move_file s (file : Bess_file.t) ~to_area =
  List.iter
    (fun seg_id ->
      let seg = Session.get_seg s ~db_id:(Bess_file.db_id file) ~seg_id in
      relocate_data_segment s seg ~to_area)
    (Bess_file.seg_ids file);
  Catalog.file_set_area (Bess_file.info file) (Some to_area);
  Bess_util.Stats.incr (Session.stats s) "reorg.file_moves"
