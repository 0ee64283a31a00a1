(* The shared mapping table (SMT) of section 4.1.2.

   All processes reserve the same number of PVMA frames; the SMT maps each
   cached database page to one *virtual frame index*, the same for every
   process ("if a process maps a page at some frame, all processes see
   this page at this frame (but possibly at different address)"). Shared
   pointers are stored as offsets in the fictitious SVMA address space
   [vframe * page_size + offset_in_page], which every process can resolve
   through its own PVMA base. *)

type t = {
  pages : Page_id.t option array; (* vframe -> page *)
  index : int Page_id.Tbl.t; (* page -> vframe *)
  mutable next : int; (* rotating scan start for free frame search *)
}

let create ~n_vframes =
  {
    pages = Array.make n_vframes None;
    index = Page_id.Tbl.create (2 * n_vframes);
    next = 0;
  }

let n_vframes t = Array.length t.pages
let vframe_of t page = Page_id.Tbl.find_opt t.index page
let n_assigned t = Page_id.Tbl.length t.index

(* Assign a virtual frame to [page]: the existing one if present, else an
   unused frame. Returns [None] when the SVMA is exhausted (all virtual
   frames in use), which callers treat like an out-of-address-space
   condition. *)
let assign t page =
  match vframe_of t page with
  | Some v -> Some v
  | None ->
      let n = Array.length t.pages in
      let rec find k =
        if k >= n then None
        else
          let v = (t.next + k) mod n in
          if t.pages.(v) = None then Some v else find (k + 1)
      in
      (match find 0 with
      | None -> None
      | Some v ->
          t.pages.(v) <- Some page;
          Page_id.Tbl.replace t.index page v;
          t.next <- (v + 1) mod n;
          Some v)

(* The page left the shared cache for good: free its virtual frame. *)
let release t page =
  match vframe_of t page with
  | None -> ()
  | Some v ->
      t.pages.(v) <- None;
      Page_id.Tbl.remove t.index page

(* SVMA pointer arithmetic. *)
let svma_of t ~page_size ~vframe ~offset =
  if vframe < 0 || vframe >= n_vframes t then invalid_arg "Smt.svma_of: bad vframe";
  (vframe * page_size) + offset

let decompose ~page_size svma = (svma / page_size, svma mod page_size)
