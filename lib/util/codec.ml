(* Little-endian fixed-width integer codecs over [Bytes.t].

   Every persistent structure in BeSS (slot arrays, segment headers, log
   records, large-object tree nodes) is laid out with these primitives so
   that the on-disk format is byte-identical across runs and platforms. *)

let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

let get_u16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set_u16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

(* One bounds-checked 32-bit load or store, not four byte accesses. *)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* 63-bit OCaml ints stored in 8 bytes; the sign bit is preserved through
   Int64 conversion so negative sentinels round-trip. *)
let get_i64 b off = Int64.to_int (Bytes.get_int64_le b off)
let set_i64 b off v = Bytes.set_int64_le b off (Int64.of_int v)

(* Length-prefixed strings: u32 length then payload. Returns the value and
   the offset just past it, so decoders can be chained. *)
let set_string b off s =
  set_u32 b off (String.length s);
  Bytes.blit_string s 0 b (off + 4) (String.length s);
  off + 4 + String.length s

let get_string b off =
  let len = get_u32 b off in
  (Bytes.sub_string b (off + 4) len, off + 4 + len)

let string_size s = 4 + String.length s
