(* A set of storage areas addressed by id.

   Databases own an area set: ordinary BeSS files live in one area, while
   multifiles stripe their object segments round-robin across every area in
   the set (Bess_file.next_area walks [ids] in order), which is what gives
   the parallel-scan capability of section 2 ("when a multifile expands
   over different physical devices ... it provides a convenient mechanism
   for parallel I/O processing"). *)

module Int_tbl = Bess_util.Int_tbl

type t = {
  areas : Area.t Int_tbl.t; (* every page read and write looks its area up here *)
  mutable order : int list; (* area ids in registration order, for striping *)
}

let create () = { areas = Int_tbl.create 8; order = [] }

let add t area =
  let id = Area.id area in
  if Int_tbl.mem t.areas id then invalid_arg "Area_set.add: duplicate area id";
  Int_tbl.add t.areas id area;
  t.order <- t.order @ [ id ]

let find t id =
  match Int_tbl.find t.areas id with
  | a -> a
  | exception Not_found -> invalid_arg (Printf.sprintf "Area_set.find: unknown area %d" id)

let ids t = t.order
let iter t f = List.iter (fun id -> f (find t id)) t.order

(* Allocate a segment in a specific area. *)
let alloc_in t ~area_id ~npages =
  let area = find t area_id in
  match Area.alloc area ~npages with
  | Some first_page -> Some { Seg_addr.area = area_id; first_page; npages }
  | None -> None

let free t (addr : Seg_addr.t) = Area.free (find t addr.area) ~first_page:addr.first_page

let read_page t ~area_id pageno = Area.read_page (find t area_id) pageno
let read_page_into t ~area_id pageno buf = Area.read_page_into (find t area_id) pageno buf
let write_page t ~area_id pageno buf = Area.write_page (find t area_id) pageno buf

let sync t = iter t Area.sync
let close t = iter t Area.close
