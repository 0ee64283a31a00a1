(* Physical layout of slotted segments, slots, and references (Figure 1).

   A slotted segment's pages hold a fixed header followed by the slot
   array. Each slot is an object header carrying the type pointer (TP),
   the data pointer (DP), the object size, the uniquifier, flags, and the
   in-memory lock pointer. The data segment is a separate disk segment of
   raw object bytes; the overflow segment holds large-object descriptors.

   DP semantics follow the paper exactly: on disk, DP is "the address in
   which the object was mapped the last time it was accessed", and the
   header additionally records the base address the data segment was last
   mapped at, so the slotted-segment fault handler can fix every DP with
   just two arithmetic operations: dp <- dp - last_base + new_base.

   References stored inside object data are 8 bytes:
     0                         null
     odd value                 unswizzled: 1 | slot<<1 | seg<<17
     even value (non-zero)     swizzled: the VM address of the target slot

   Slot VM addresses are always even (the header size and slot size are
   even and mappings are page-aligned), so the low bit is free to act as
   the swizzle tag. Object starts are 8-aligned and reference offsets
   must be multiples of 8, so an 8-byte reference never straddles a page
   boundary; slots are 64 bytes for the same reason. *)

let header_size = 64

(* 64 divides every page size in use, so a slot never straddles a page
   boundary -- unswizzling and DP fix-up can treat each slot as living
   wholly inside one page image. 40 bytes are used; the rest is reserved. *)
let slot_size = 64
let magic = 0x42534C53 (* "BSLS" *)

(* Transparent large-object limit (section 2.1: "currently, up to 64KB"). *)
let transparent_large_limit = 65536

(* ---- Header field offsets ---- *)

let hdr_magic = 0
let hdr_db_id = 4
let hdr_seg_id = 8
let hdr_n_slots = 12
let hdr_data_used = 16
let hdr_free_slot_head = 20 (* head of the free-slot chain, 0xffff = none *)
let hdr_data_disk = 24 (* Seg_addr, 12 bytes *)
let hdr_overflow_disk = 36 (* Seg_addr, 12 bytes *)
let hdr_last_data_base = 48 (* i64 *)
let hdr_flags = 56

(* ---- Slot field offsets (relative to slot start) ---- *)

let slot_type = 0 (* u32: type descriptor id *)
let slot_dp = 4 (* i64: data pointer *)
let slot_objsize = 12 (* u32 *)
let slot_uniq = 16 (* u32 *)
let slot_flags = 20 (* u32 *)
let slot_lock = 24 (* i64: in-memory lock record pointer *)
let slot_aux = 32 (* u32: free-chain next / large-object table slot *)

(* Slot flag bits. *)
let flag_used = 1
let flag_large = 2 (* transparent multi-page object (<= 64KB) *)
let flag_vlarge = 4 (* very large object via the Lob class interface *)
let flag_forward = 8 (* forward object: data is the OID of an object in another db *)

(* Does a slot with these flags hold a DP into the data segment? Every
   used slot does, except a transparent large object's: its DP is the
   object's own reserved range. A very large object's DP names its
   descriptor, which lives in the data segment like any small object. *)
let has_data_dp flags = flags land flag_used <> 0 && flags land flag_large = 0

let slot_offset idx = header_size + (idx * slot_size)
let slots_capacity ~pages ~page_size = ((pages * page_size) - header_size) / slot_size

(* Pages needed for a slotted segment with [n] slots. *)
let slotted_pages ~n_slots ~page_size =
  (header_size + (n_slots * slot_size) + page_size - 1) / page_size

(* ---- Persistent reference encoding ---- *)

type ref_value =
  | Null
  | Unswizzled of { seg : int; slot : int }
  | Swizzled of int (* VM address of the target slot *)

let max_slot_index = 0xFFFF

(* The encoding on plain ints, for the per-field swizzling loops, which
   must not allocate a [ref_value] per field. *)
let encode_unswizzled ~seg ~slot =
  if slot < 0 || slot > max_slot_index then invalid_arg "Layout.ref_encode: slot out of range";
  1 lor (slot lsl 1) lor (seg lsl 17)

let encode_swizzled addr =
  if addr land 1 <> 0 || addr = 0 then invalid_arg "Layout.ref_encode: bad swizzled address";
  addr

let is_unswizzled v = v land 1 = 1
let unswizzled_seg v = v lsr 17
let unswizzled_slot v = (v lsr 1) land max_slot_index

let ref_encode = function
  | Null -> 0
  | Unswizzled { seg; slot } -> encode_unswizzled ~seg ~slot
  | Swizzled addr -> encode_swizzled addr

let ref_decode v =
  if v = 0 then Null
  else if is_unswizzled v then Unswizzled { seg = unswizzled_seg v; slot = unswizzled_slot v }
  else Swizzled v

let pp_ref ppf = function
  | Null -> Fmt.string ppf "null"
  | Unswizzled { seg; slot } -> Fmt.pf ppf "u(%d,%d)" seg slot
  | Swizzled addr -> Fmt.pf ppf "s(0x%x)" addr

(* ---- Raw (Bytes-level) header and slot accessors ----

   Used when constructing fresh segment images and when the server applies
   updates; live access goes through Vmem so protection is enforced. *)

module Raw = struct
  let get_u32 = Bess_util.Codec.get_u32
  let set_u32 = Bess_util.Codec.set_u32
  let get_i64 = Bess_util.Codec.get_i64
  let set_i64 = Bess_util.Codec.set_i64

  (* Initialise a fresh slotted-segment image. *)
  let init_header b ~db_id ~seg_id ~n_slots ~data_disk ~overflow_disk =
    set_u32 b hdr_magic magic;
    set_u32 b hdr_db_id db_id;
    set_u32 b hdr_seg_id seg_id;
    set_u32 b hdr_n_slots n_slots;
    set_u32 b hdr_data_used 0;
    set_u32 b hdr_free_slot_head 0xFFFFFFFF;
    Bess_storage.Seg_addr.encode b hdr_data_disk data_disk;
    Bess_storage.Seg_addr.encode b hdr_overflow_disk overflow_disk;
    set_i64 b hdr_last_data_base 0;
    set_u32 b hdr_flags 0
end
