(* CRC-32 (IEEE 802.3 polynomial, reflected) used to checksum WAL records
   and storage-area superblocks.

   Slicing-by-8: eight 256-entry tables, computed once, fold eight bytes
   per step with eight independent lookups instead of a chain of eight
   dependent ones, so the validating scan that opens every restart runs
   at several times the byte-at-a-time rate. The polynomial and the
   values are those of the byte-at-a-time algorithm, which finishes the
   range's last [len mod 8] bytes. The running value lives in a native
   int (the low 32 bits), so the inner loops neither box nor
   bounds-check: [update] checks its range once. *)

(* Table [k] at [256 * k]: table 0 is the byte-at-a-time table; entry
   [n] of table [k] is the CRC of byte [n] followed by [k] zero bytes. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let byte b i = Char.code (Bytes.unsafe_get b i)
let tbl k i = Array.unsafe_get table ((256 * k) + i)

let update crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Crc32.update";
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let p = !i and x = !c in
    c :=
      tbl 7 ((x lxor byte b p) land 0xFF)
      lxor tbl 6 (((x lsr 8) lxor byte b (p + 1)) land 0xFF)
      lxor tbl 5 (((x lsr 16) lxor byte b (p + 2)) land 0xFF)
      lxor tbl 4 ((x lsr 24) lxor byte b (p + 3))
      lxor tbl 3 (byte b (p + 4))
      lxor tbl 2 (byte b (p + 5))
      lxor tbl 1 (byte b (p + 6))
      lxor tbl 0 (byte b (p + 7));
    i := p + 8
  done;
  for p = stop8 to off + len - 1 do
    c := tbl 0 ((!c lxor byte b p) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  update 0l b off len

let string s = bytes (Bytes.unsafe_of_string s)

(* CRC as a non-negative int, convenient for storing via Codec.set_u32. *)
let to_int c = Int32.to_int c land 0xFFFFFFFF
