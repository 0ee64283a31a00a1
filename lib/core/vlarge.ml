(* Very large objects: the class interface of section 2.1.

   Objects past the transparent 64KB limit, or objects built up by
   successive appends, are not mapped; they are manipulated through an
   explicit byte-range interface backed by {!Bess_largeobj.Lob}: a
   sequence of variable-size disk segments indexed by a positional tree,
   "and the root of the tree is placed in the overflow segment".

   Concretely: the BeSS object is a small descriptor record in the data
   segment -- the disk address and length of an *overflow segment* that
   holds the encoded tree root. Opening the object decodes the tree;
   saving re-encodes it, reallocating the overflow segment when the tree
   outgrew it. The descriptor update is an ordinary transactional object
   write; the bulk byte traffic goes straight to the storage area, the
   usual non-logged bulk path for blobs.

   Compression hooks (section 2.4's example) plug in per object via
   {!set_codec}: user-supplied compress/decompress functions applied when
   leaf segments are stored and fetched. *)

module Vmem = Bess_vmem.Vmem
module Lob = Bess_largeobj.Lob
module Seg_addr = Bess_storage.Seg_addr

(* Descriptor record in the data segment: overflow address + length. *)
let descriptor_size = Seg_addr.encoded_size + 4

let vlarge_type_name = "__bess_vlarge"

let vlarge_type session db_id =
  let types = Catalog.types (Session.binding session db_id).b_catalog in
  match Type_desc.find_by_name types vlarge_type_name with
  | Some ty -> ty
  | None -> Type_desc.register types ~name:vlarge_type_name ~size:descriptor_size ~ref_offsets:[||]

let area_of db session seg =
  ignore session;
  Bess_storage.Area_set.find (Db.areas db) seg.Session.data_disk.Seg_addr.area

(* Write [blob] into a fresh overflow segment of [area]; returns its
   address. *)
let write_overflow area blob =
  let ps = Bess_storage.Area.page_size area in
  let npages = Stdlib.max 1 ((Bytes.length blob + ps - 1) / ps) in
  match Bess_storage.Area.alloc area ~npages with
  | None -> failwith "Vlarge: out of space for overflow segment"
  | Some first_page ->
      let buf = Bytes.create ps in
      for i = 0 to npages - 1 do
        Bytes.fill buf 0 ps '\000';
        let off = i * ps in
        let chunk = Stdlib.min ps (Bytes.length blob - off) in
        if chunk > 0 then Bytes.blit blob off buf 0 chunk;
        Bess_storage.Area.write_page area (first_page + i) buf
      done;
      { Seg_addr.area = Bess_storage.Area.id area; first_page; npages }

let read_overflow area (addr : Seg_addr.t) len =
  let ps = Bess_storage.Area.page_size area in
  let blob = Bytes.create (addr.npages * ps) in
  let buf = Bytes.create ps in
  for i = 0 to addr.npages - 1 do
    Bess_storage.Area.read_page_into area (addr.first_page + i) buf;
    Bytes.blit buf 0 blob (i * ps) ps
  done;
  Bytes.sub blob 0 len

let read_descriptor session addr =
  let dp = Session.data_ptr session addr in
  let raw = Vmem.read_bytes (Session.mem session) dp descriptor_size in
  (Seg_addr.decode raw 0, Bess_util.Codec.get_u32 raw Seg_addr.encoded_size)

let write_descriptor session addr (ov : Seg_addr.t) len =
  let dp = Session.data_ptr session addr in
  let raw = Bytes.create descriptor_size in
  Seg_addr.encode raw 0 ov;
  Bess_util.Codec.set_u32 raw Seg_addr.encoded_size len;
  Vmem.write_bytes (Session.mem session) dp raw

(* Create an empty very large object in [seg]. *)
let create db session (seg : Session.seg_rt) =
  let ty = vlarge_type session seg.db_id in
  let addr = Session.create_object session seg ty ~size:descriptor_size in
  let rt, idx = Session.seg_of_slot session addr in
  Session.write_slot_u32 session rt idx ~field:Layout.slot_flags
    (Layout.flag_used lor Layout.flag_vlarge);
  let area = area_of db session seg in
  let lob = Lob.create area in
  let blob = Lob.encode lob in
  let ov = write_overflow area blob in
  write_descriptor session addr ov (Bytes.length blob);
  (addr, lob)

(* Re-open the Lob behind [addr]. *)
let open_ db session addr =
  let seg, _ = Session.seg_of_slot session addr in
  let area = area_of db session seg in
  let ov, len = read_descriptor session addr in
  Lob.decode area (read_overflow area ov len)

(* Persist the (possibly restructured) tree root back into the overflow
   segment, reallocating when it no longer fits. *)
let save db session addr lob =
  let seg, _ = Session.seg_of_slot session addr in
  let area = area_of db session seg in
  let blob = Lob.encode lob in
  let ov, _len = read_descriptor session addr in
  let ps = Bess_storage.Area.page_size area in
  if Bytes.length blob <= ov.npages * ps && ov.npages > 0 then begin
    (* Fits in place: rewrite the overflow pages. *)
    let buf = Bytes.create ps in
    for i = 0 to ov.npages - 1 do
      Bytes.fill buf 0 ps '\000';
      let off = i * ps in
      let chunk = Stdlib.min ps (Bytes.length blob - off) in
      if chunk > 0 then Bytes.blit blob off buf 0 chunk;
      Bess_storage.Area.write_page area (ov.first_page + i) buf
    done;
    write_descriptor session addr ov (Bytes.length blob)
  end
  else begin
    let ov' = write_overflow area blob in
    if ov.npages > 0 then Bess_storage.Area.free area ~first_page:ov.first_page;
    write_descriptor session addr ov' (Bytes.length blob)
  end

(* Destroy the object: free the data segments, the overflow segment, and
   the descriptor object. *)
let destroy db session addr =
  let seg, _ = Session.seg_of_slot session addr in
  let area = area_of db session seg in
  let lob = open_ db session addr in
  Lob.destroy lob;
  let ov, _ = read_descriptor session addr in
  if ov.npages > 0 then Bess_storage.Area.free area ~first_page:ov.first_page;
  Session.delete_object session addr
