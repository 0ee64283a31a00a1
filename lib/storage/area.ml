(* A storage area: a UNIX file or an in-memory arena holding pages.

   Section 2: "the database consists of a number of storage areas, which
   are UNIX files or disk raw partitions. Storage areas are partitioned
   into a number of extents, and allocation of disk segments from one of
   these extents is based on the binary buddy system. Storage areas that
   correspond to UNIX files may expand in size by one extent at a time."

   On-disk layout:
     page 0                          superblock
     then per extent i:
       1 metadata page               allocation table of the extent
       2^extent_order data pages

   The allocation table page records (relative_page u32, order u8) for each
   live block, so an area can be closed and re-opened with its buddy state
   intact. The extent order is capped so the worst-case table (every page
   allocated singly) fits in one metadata page. *)

type backend =
  | Memory of { mutable pages : Bytes.t array; mutable used : int }
  | File of { fd : Unix.file_descr; path : string }

type extent = { buddy : Bess_buddy.Buddy.t; data_first : int (* absolute page of data page 0 *) }

type t = {
  id : int;
  page_size : int;
  extent_order : int; (* data pages per extent = 2^extent_order *)
  mutable extents : extent array;
  mutable growable : bool;
  backend : backend;
  stats : Bess_util.Stats.t;
  c_page_reads : Bess_util.Stats.counter;
  c_page_writes : Bess_util.Stats.counter;
}

let make ~id ~page_size ~extent_order ~growable backend =
  let stats = Bess_util.Stats.create () in
  { id; page_size; extent_order; extents = [||]; growable; backend; stats;
    c_page_reads = Bess_util.Stats.counter stats "area.page_reads";
    c_page_writes = Bess_util.Stats.counter stats "area.page_writes" }

let magic = "BESSAREA"

let extent_pages t = 1 lsl t.extent_order

(* Absolute page index where extent [i]'s metadata page lives. *)
let extent_meta_page t i = 1 + (i * (extent_pages t + 1))

let page_size t = t.page_size
let id t = t.id
let stats t = t.stats
let n_extents t = Array.length t.extents
let capacity_pages t = n_extents t * extent_pages t

let free_pages t =
  Array.fold_left (fun acc e -> acc + Bess_buddy.Buddy.free_units e.buddy) 0 t.extents

(* ---- Backend page I/O -------------------------------------------------- *)

let backend_read t pageno buf =
  Bess_util.Stats.bump t.c_page_reads;
  match t.backend with
  | Memory m ->
      if pageno >= m.used then Bytes.fill buf 0 t.page_size '\000'
      else Bytes.blit m.pages.(pageno) 0 buf 0 t.page_size
  | File f ->
      let off = pageno * t.page_size in
      ignore (Unix.lseek f.fd off Unix.SEEK_SET);
      let rec read_all pos =
        if pos < t.page_size then begin
          let n = Unix.read f.fd buf pos (t.page_size - pos) in
          if n = 0 then Bytes.fill buf pos (t.page_size - pos) '\000'
          else read_all (pos + n)
        end
      in
      read_all 0

let backend_write t pageno buf =
  Bess_util.Stats.bump t.c_page_writes;
  match t.backend with
  | Memory m ->
      if pageno >= Array.length m.pages then begin
        let n' = Stdlib.max (pageno + 1) (2 * Array.length m.pages) in
        let pages =
          Array.init n' (fun i ->
              if i < Array.length m.pages then m.pages.(i) else Bytes.create t.page_size)
        in
        m.pages <- pages
      end;
      if pageno >= m.used then begin
        for i = m.used to pageno do
          Bytes.fill m.pages.(i) 0 t.page_size '\000'
        done;
        m.used <- pageno + 1
      end;
      Bytes.blit buf 0 m.pages.(pageno) 0 t.page_size
  | File f ->
      let off = pageno * t.page_size in
      ignore (Unix.lseek f.fd off Unix.SEEK_SET);
      let rec write_all pos =
        if pos < t.page_size then begin
          let n = Unix.write f.fd buf pos (t.page_size - pos) in
          write_all (pos + n)
        end
      in
      write_all 0

let read_page_into t pageno buf =
  if Bytes.length buf <> t.page_size then invalid_arg "Area.read_page_into: bad buffer size";
  backend_read t pageno buf

let read_page t pageno =
  let buf = Bytes.create t.page_size in
  backend_read t pageno buf;
  buf

let write_page t pageno buf =
  if Bytes.length buf <> t.page_size then invalid_arg "Area.write_page: bad buffer size";
  backend_write t pageno buf

(* ---- Superblock and extent metadata ------------------------------------ *)

let write_superblock t =
  let b = Bytes.make t.page_size '\000' in
  Bytes.blit_string magic 0 b 0 8;
  Bess_util.Codec.set_u32 b 8 1 (* version *);
  Bess_util.Codec.set_u32 b 12 t.page_size;
  Bess_util.Codec.set_u32 b 16 t.extent_order;
  Bess_util.Codec.set_u32 b 20 (n_extents t);
  Bess_util.Codec.set_u32 b 24 (if t.growable then 1 else 0);
  Bess_util.Codec.set_u32 b 28 t.id;
  let crc = Bess_util.Crc32.bytes ~off:0 ~len:32 b in
  Bess_util.Codec.set_u32 b 32 (Bess_util.Crc32.to_int crc);
  backend_write t 0 b

(* Persist one extent's allocation table: count, then (page u32, order u8)
   per allocated block. *)
let write_extent_meta t i =
  let e = t.extents.(i) in
  let entries = ref [] in
  for page = 0 to extent_pages t - 1 do
    match Bess_buddy.Buddy.block_size e.buddy page with
    | Some size ->
        let rec order_of s k = if s = 1 then k else order_of (s lsr 1) (k + 1) in
        entries := (page, order_of size 0) :: !entries
    | None -> ()
  done;
  let entries = List.rev !entries in
  let b = Bytes.make t.page_size '\000' in
  Bess_util.Codec.set_u32 b 0 (List.length entries);
  List.iteri
    (fun j (page, order) ->
      let off = 4 + (j * 5) in
      if off + 5 > t.page_size then failwith "Area: extent allocation table overflow";
      Bess_util.Codec.set_u32 b off page;
      Bess_util.Codec.set_u8 b (off + 4) order)
    entries;
  backend_write t (extent_meta_page t i) b

let fresh_extent t i =
  { buddy = Bess_buddy.Buddy.create ~order:t.extent_order; data_first = extent_meta_page t i + 1 }

let load_extent t i =
  let e = fresh_extent t i in
  let b = read_page t (extent_meta_page t i) in
  let n = Bess_util.Codec.get_u32 b 0 in
  (* Rebuild the buddy by replaying allocations of recorded blocks. The
     buddy allocator picks lowest-address blocks first, so allocating in
     ascending page order with exact sizes reproduces the recorded layout;
     we verify each block landed where recorded. *)
  let blocks = ref [] in
  for j = 0 to n - 1 do
    let off = 4 + (j * 5) in
    let page = Bess_util.Codec.get_u32 b off in
    let order = Bess_util.Codec.get_u8 b (off + 4) in
    blocks := (page, order) :: !blocks
  done;
  let blocks = List.sort compare !blocks in
  List.iter
    (fun (page, order) ->
      match Bess_buddy.Buddy.alloc e.buddy (1 lsl order) with
      | Some got when got = page -> ()
      | _ -> failwith "Area: corrupt extent allocation table")
    blocks;
  e

(* ---- Lifecycle ---------------------------------------------------------- *)

let add_extent t =
  let i = n_extents t in
  let e = fresh_extent t i in
  t.extents <- Array.append t.extents [| e |];
  (* Touch the last data page so file-backed areas physically grow. *)
  backend_write t (extent_meta_page t i + extent_pages t) (Bytes.make t.page_size '\000');
  write_extent_meta t i;
  write_superblock t;
  Bess_util.Stats.incr t.stats "area.extent_grows"

let max_extent_order page_size =
  (* Worst case: every data page allocated singly -> 5 bytes per entry. *)
  let rec go k = if (4 + ((1 lsl (k + 1)) * 5)) > page_size then k else go (k + 1) in
  go 0

let create ?(page_size = 4096) ?(extent_order = 8) ~id backend_kind =
  if extent_order > max_extent_order page_size then
    invalid_arg "Area.create: extent_order too large for allocation table page";
  let backend =
    match backend_kind with
    | `Memory -> Memory { pages = Array.init 64 (fun _ -> Bytes.create page_size); used = 0 }
    | `File path ->
        let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        File { fd; path }
  in
  let t = make ~id ~page_size ~extent_order ~growable:true backend in
  add_extent t;
  t

let open_file ~id path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  (* Read the superblock with a conservative page size first. *)
  let probe = Bytes.create 64 in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec read_all pos =
    if pos < 64 then begin
      let n = Unix.read fd probe pos (64 - pos) in
      if n = 0 then () else read_all (pos + n)
    end
  in
  read_all 0;
  if Bytes.sub_string probe 0 8 <> magic then failwith "Area.open_file: bad magic";
  let page_size = Bess_util.Codec.get_u32 probe 12 in
  let extent_order = Bess_util.Codec.get_u32 probe 16 in
  let n = Bess_util.Codec.get_u32 probe 20 in
  let growable = Bess_util.Codec.get_u32 probe 24 = 1 in
  let t = make ~id ~page_size ~extent_order ~growable (File { fd; path }) in
  t.extents <- Array.init n (fun i -> load_extent t i);
  t

let sync t =
  Array.iteri (fun i _ -> write_extent_meta t i) t.extents;
  write_superblock t;
  (match t.backend with File f -> Unix.fsync f.fd | Memory _ -> ());
  Bess_util.Stats.incr t.stats "area.syncs"

let close t =
  sync t;
  match t.backend with File f -> Unix.close f.fd | Memory _ -> ()

(* ---- Segment allocation ------------------------------------------------- *)

(* Absolute page -> (extent index, relative page). *)
let locate t abs_page =
  let span = extent_pages t + 1 in
  let i = (abs_page - 1) / span in
  if i < 0 || i >= n_extents t then invalid_arg "Area: page is not a data page";
  let rel = abs_page - t.extents.(i).data_first in
  if rel < 0 || rel >= extent_pages t then invalid_arg "Area: page is not a data page";
  (i, rel)

let alloc t ~npages =
  if npages <= 0 then invalid_arg "Area.alloc: npages must be positive";
  let try_extents () =
    let result = ref None in
    (try
       Array.iter
         (fun e ->
           match Bess_buddy.Buddy.alloc e.buddy npages with
           | Some rel ->
               result := Some (e.data_first + rel);
               raise Exit
           | None -> ())
         t.extents
     with Exit -> ());
    !result
  in
  match try_extents () with
  | Some page ->
      Bess_util.Stats.incr t.stats "area.seg_allocs";
      Some page
  | None ->
      if t.growable && npages <= extent_pages t then begin
        add_extent t;
        match try_extents () with
        | Some page ->
            Bess_util.Stats.incr t.stats "area.seg_allocs";
            Some page
        | None -> None
      end
      else begin
        Bess_util.Stats.incr t.stats "area.seg_alloc_failures";
        None
      end

let free t ~first_page =
  let i, rel = locate t first_page in
  Bess_buddy.Buddy.free t.extents.(i).buddy rel;
  Bess_util.Stats.incr t.stats "area.seg_frees"

let seg_size t ~first_page =
  let i, rel = locate t first_page in
  Bess_buddy.Buddy.block_size t.extents.(i).buddy rel
