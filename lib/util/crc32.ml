(* CRC-32 (IEEE 802.3 polynomial, reflected) used to checksum WAL records
   and storage-area superblocks. Table-driven, one table computed once.
   The running value lives in a native int (the low 32 bits), so the inner
   loop neither boxes nor bounds-checks: [update] checks its range once. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let update crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Crc32.update";
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  update 0l b off len

let string s = bytes (Bytes.unsafe_of_string s)

(* CRC as a non-negative int, convenient for storing via Codec.set_u32. *)
let to_int c = Int32.to_int c land 0xFFFFFFFF
