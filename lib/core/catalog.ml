(* Per-database catalog: segment table, file table, root directory, type
   registry.

   The segment table maps a segment id to the disk address of its
   *slotted* segment only -- slotted segments are never relocated
   (section 2.1), so this table is write-once per segment. Everything
   movable (the data segment, the overflow segment) is addressed from the
   slotted segment header itself, which is why reorganisation never
   touches the catalog or any inter-object reference.

   The root directory implements named objects (section 2.5): "BeSS
   maintains a directory which is implemented as a pair of hash tables",
   one per direction so removal of a root object also removes its name
   (referential integrity). *)

type file_info = {
  file_id : int;
  file_name : string;
  mutable area_id : int option; (* Some a: ordinary file bound to one area; None: multifile *)
  mutable seg_ids : int list; (* segments of the file, in creation order *)
}

type t = {
  db_id : int;
  host : int;
  segments : (int, Bess_storage.Seg_addr.t) Hashtbl.t; (* seg_id -> slotted segment *)
  files : (int, file_info) Hashtbl.t;
  files_by_name : (string, int) Hashtbl.t;
  roots_by_name : (string, Oid.t) Hashtbl.t;
  roots_by_oid : string Oid.Tbl.t;
  types : Type_desc.registry;
  mutable next_seg_id : int;
  mutable next_file_id : int;
}

let create ~db_id ~host =
  {
    db_id;
    host;
    segments = Hashtbl.create 64;
    files = Hashtbl.create 16;
    files_by_name = Hashtbl.create 16;
    roots_by_name = Hashtbl.create 16;
    roots_by_oid = Oid.Tbl.create 16;
    types = Type_desc.registry_create ();
    next_seg_id = 1;
    next_file_id = 1;
  }

let db_id t = t.db_id
let host t = t.host
let types t = t.types

(* ---- Segments ---- *)

let fresh_seg_id t =
  let id = t.next_seg_id in
  t.next_seg_id <- id + 1;
  id

let add_segment t ~seg_id addr =
  Hashtbl.replace t.segments seg_id addr;
  (* Explicitly-numbered segments must not collide with future ids. *)
  if seg_id >= t.next_seg_id then t.next_seg_id <- seg_id + 1

let find_segment t seg_id =
  match Hashtbl.find_opt t.segments seg_id with
  | Some addr -> addr
  | None -> invalid_arg (Printf.sprintf "Catalog: unknown segment %d" seg_id)

let n_segments t = Hashtbl.length t.segments

let segment_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.segments [] |> List.sort compare

(* ---- Files ---- *)

let create_file t ~name ~area_id =
  if Hashtbl.mem t.files_by_name name then invalid_arg "Catalog.create_file: duplicate name";
  let file_id = t.next_file_id in
  t.next_file_id <- file_id + 1;
  let info = { file_id; file_name = name; area_id; seg_ids = [] } in
  Hashtbl.replace t.files file_id info;
  Hashtbl.replace t.files_by_name name file_id;
  info

let find_file t file_id =
  match Hashtbl.find_opt t.files file_id with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Catalog: unknown file %d" file_id)

let find_file_by_name t name =
  Option.map (find_file t) (Hashtbl.find_opt t.files_by_name name)

let file_add_segment _t file seg_id = file.seg_ids <- file.seg_ids @ [ seg_id ]

(* Rebind a file to a different area (movement of entire files between
   storage areas, section 2.1). Segment payloads move separately. *)
let file_set_area file area_id = file.area_id <- area_id

let files t = Hashtbl.fold (fun _ f acc -> f :: acc) t.files [] |> List.sort compare

(* ---- Root directory ---- *)

let set_root t ~name oid =
  (match Hashtbl.find_opt t.roots_by_name name with
  | Some old -> Oid.Tbl.remove t.roots_by_oid old
  | None -> ());
  Hashtbl.replace t.roots_by_name name oid;
  Oid.Tbl.replace t.roots_by_oid oid name

let find_root t name = Hashtbl.find_opt t.roots_by_name name
let root_name t oid = Oid.Tbl.find_opt t.roots_by_oid oid

let remove_root_by_name t name =
  match Hashtbl.find_opt t.roots_by_name name with
  | None -> ()
  | Some oid ->
      Hashtbl.remove t.roots_by_name name;
      Oid.Tbl.remove t.roots_by_oid oid

(* Referential integrity: deleting an object also unnames it. *)
let remove_root_by_oid t oid =
  match Oid.Tbl.find_opt t.roots_by_oid oid with
  | None -> ()
  | Some name ->
      Hashtbl.remove t.roots_by_name name;
      Oid.Tbl.remove t.roots_by_oid oid

let roots t =
  Hashtbl.fold (fun name oid acc -> (name, oid) :: acc) t.roots_by_name []
  |> List.sort compare

(* ---- Serialization ---- *)

let encode t =
  let buf = Buffer.create 1024 in
  let u32 v =
    let b = Bytes.create 4 in
    Bess_util.Codec.set_u32 b 0 v;
    Buffer.add_bytes buf b
  in
  let str s =
    let b = Bytes.create (Bess_util.Codec.string_size s) in
    ignore (Bess_util.Codec.set_string b 0 s);
    Buffer.add_bytes buf b
  in
  u32 t.db_id;
  u32 t.host;
  u32 t.next_seg_id;
  u32 t.next_file_id;
  (* segments *)
  u32 (Hashtbl.length t.segments);
  List.iter
    (fun id ->
      u32 id;
      let b = Bytes.create Bess_storage.Seg_addr.encoded_size in
      Bess_storage.Seg_addr.encode b 0 (find_segment t id);
      Buffer.add_bytes buf b)
    (segment_ids t);
  (* files *)
  let fs = files t in
  u32 (List.length fs);
  List.iter
    (fun f ->
      u32 f.file_id;
      str f.file_name;
      u32 (match f.area_id with Some a -> a + 1 | None -> 0);
      u32 (List.length f.seg_ids);
      List.iter u32 f.seg_ids)
    fs;
  (* roots *)
  let rs = roots t in
  u32 (List.length rs);
  List.iter
    (fun (name, oid) ->
      str name;
      let b = Bytes.create Oid.encoded_size in
      Oid.encode b 0 oid;
      Buffer.add_bytes buf b)
    rs;
  (* types *)
  let ts = Type_desc.registry_to_list t.types in
  u32 (List.length ts);
  List.iter
    (fun td ->
      let b = Bytes.create (Type_desc.encoded_size td) in
      ignore (Type_desc.encode b 0 td);
      Buffer.add_bytes buf b)
    ts;
  Buffer.to_bytes buf

let decode b =
  let pos = ref 0 in
  let u32 () =
    let v = Bess_util.Codec.get_u32 b !pos in
    pos := !pos + 4;
    v
  in
  let str () =
    let s, p = Bess_util.Codec.get_string b !pos in
    pos := p;
    s
  in
  let db_id = u32 () in
  let host = u32 () in
  let next_seg_id = u32 () in
  let next_file_id = u32 () in
  let t = create ~db_id ~host in
  t.next_seg_id <- next_seg_id;
  t.next_file_id <- next_file_id;
  let n_segs = u32 () in
  for _ = 1 to n_segs do
    let id = u32 () in
    let addr = Bess_storage.Seg_addr.decode b !pos in
    pos := !pos + Bess_storage.Seg_addr.encoded_size;
    add_segment t ~seg_id:id addr
  done;
  let n_files = u32 () in
  for _ = 1 to n_files do
    let file_id = u32 () in
    let file_name = str () in
    let area = u32 () in
    let area_id = if area = 0 then None else Some (area - 1) in
    let n = u32 () in
    let seg_ids = List.init n (fun _ -> u32 ()) in
    let info = { file_id; file_name; area_id; seg_ids } in
    Hashtbl.replace t.files file_id info;
    Hashtbl.replace t.files_by_name file_name file_id
  done;
  let n_roots = u32 () in
  for _ = 1 to n_roots do
    let name = str () in
    let oid = Oid.decode b !pos in
    pos := !pos + Oid.encoded_size;
    set_root t ~name oid
  done;
  let n_types = u32 () in
  for _ = 1 to n_types do
    let td, p = Type_desc.decode b !pos in
    pos := p;
    Type_desc.install t.types td
  done;
  t
