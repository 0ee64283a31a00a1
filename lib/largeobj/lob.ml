(* Very large objects: variable-size disk segments indexed by a positional
   tree (section 2.1, following Biliris ICDE'92 / SIGMOD'92 [3,4]).

   Objects too big for transparent mapping (created incrementally, or past
   the 64KB transparent limit) get a class interface with byte-range
   operations: read, write, insert, delete at arbitrary positions, append,
   truncate. The object body lives in a sequence of variable-size segments
   (leaves); internal nodes index them by cumulative byte count, so a
   positional lookup descends by subtree sizes. The root descriptor is
   what BeSS stores in the overflow segment.

   All byte-range edits funnel through one splice primitive
   [replace_range]: delete [del] bytes at [pos] and insert [ins] there.
   Leaves are rewritten whole (read-modify-write), oversized results split
   into several leaves, adjacent small leaves coalesce, and parent nodes
   regroup to bounded fan-out. A compression codec can be installed
   per-object (the paper's hook example): leaves then store compressed
   images whose physical length differs from their logical length. *)

type codec = { compress : Bytes.t -> Bytes.t; decompress : Bytes.t -> Bytes.t }

type leaf = {
  mutable seg : Bess_storage.Seg_addr.t option; (* None only for empty leaves in flight *)
  mutable len : int; (* logical bytes *)
  mutable plen : int; (* physical bytes stored (= len without codec) *)
}

type node = Leaf of leaf | Inner of inner
and inner = { mutable children : node array; mutable bytes : int }

type t = {
  area : Bess_storage.Area.t;
  mutable root : node;
  mutable codec : codec option;
  max_leaf : int; (* max logical bytes per leaf *)
  min_leaf : int; (* coalescing threshold *)
  order : int; (* max children per inner node *)
  stats : Bess_util.Stats.t;
}

let node_size = function Leaf l -> l.len | Inner n -> n.bytes

let default_max_leaf area = 8 * Bess_storage.Area.page_size area

let create ?max_leaf ?(order = 16) area =
  let max_leaf = match max_leaf with Some m -> m | None -> default_max_leaf area in
  if max_leaf < Bess_storage.Area.page_size area then
    invalid_arg "Lob.create: max_leaf smaller than a page";
  let stats = Bess_util.Stats.create () in
  Bess_obs.Registry.register_stats "lob" stats;
  {
    area;
    root = Leaf { seg = None; len = 0; plen = 0 };
    codec = None;
    max_leaf;
    min_leaf = max_leaf / 4;
    order;
    stats;
  }

let size t = node_size t.root
let stats t = t.stats
let set_codec t codec = t.codec <- codec

(* ---- Leaf I/O ------------------------------------------------------------ *)

let page_size t = Bess_storage.Area.page_size t.area

let free_seg t (leaf : leaf) =
  match leaf.seg with
  | Some seg ->
      Bess_storage.Area.free t.area ~first_page:seg.first_page;
      leaf.seg <- None;
      Bess_util.Stats.incr t.stats "lob.seg_frees"
  | None -> ()

(* Read the decoded logical content of a leaf. *)
let read_leaf t (leaf : leaf) =
  match leaf.seg with
  | None -> Bytes.create 0
  | Some seg ->
      let ps = page_size t in
      let raw = Bytes.create (seg.npages * ps) in
      let buf = Bytes.create ps in
      for i = 0 to seg.npages - 1 do
        Bess_storage.Area.read_page_into t.area (seg.first_page + i) buf;
        Bytes.blit buf 0 raw (i * ps) ps
      done;
      Bess_util.Stats.add t.stats "lob.pages_read" seg.npages;
      let phys = Bytes.sub raw 0 leaf.plen in
      (match t.codec with
      | Some c ->
          let logical = c.decompress phys in
          if Bytes.length logical <> leaf.len then failwith "Lob: codec length mismatch";
          logical
      | None -> phys)

(* Write logical [data] into [leaf], reallocating its segment when the
   current one cannot hold the (possibly compressed) physical image. *)
let write_leaf t (leaf : leaf) data =
  let phys = match t.codec with Some c -> c.compress data | None -> data in
  let ps = page_size t in
  let need_pages = Stdlib.max 1 ((Bytes.length phys + ps - 1) / ps) in
  let fits =
    match leaf.seg with Some seg -> need_pages <= seg.npages | None -> false
  in
  (* Reallocate when too small, or when shrinking below half the current
     allocation (avoid holding 2x the needed space forever). *)
  let realloc =
    (not fits)
    || match leaf.seg with Some seg -> need_pages * 2 <= seg.npages | None -> true
  in
  if realloc then begin
    free_seg t leaf;
    match Bess_storage.Area.alloc t.area ~npages:need_pages with
    | Some first_page ->
        leaf.seg <-
          Some { Bess_storage.Seg_addr.area = Bess_storage.Area.id t.area; first_page;
                 npages = need_pages };
        Bess_util.Stats.incr t.stats "lob.seg_allocs"
    | None -> failwith "Lob: storage area out of space"
  end;
  let seg = Option.get leaf.seg in
  let buf = Bytes.create ps in
  for i = 0 to need_pages - 1 do
    Bytes.fill buf 0 ps '\000';
    let off = i * ps in
    let chunk = Stdlib.min ps (Bytes.length phys - off) in
    if chunk > 0 then Bytes.blit phys off buf 0 chunk;
    Bess_storage.Area.write_page t.area (seg.first_page + i) buf
  done;
  Bess_util.Stats.add t.stats "lob.pages_written" need_pages;
  leaf.len <- Bytes.length data;
  leaf.plen <- Bytes.length phys

(* Build leaves for [data], splitting at 3/4 of max_leaf so freshly split
   leaves keep slack for subsequent inserts. *)
let leaves_for t data =
  let n = Bytes.length data in
  if n = 0 then []
  else begin
    let target = Stdlib.max 1 (t.max_leaf * 3 / 4) in
    let chunk_size = if n <= t.max_leaf then n else target in
    let rec go pos acc =
      if pos >= n then List.rev acc
      else begin
        let len = Stdlib.min chunk_size (n - pos) in
        (* Avoid a dangling tiny tail: steal from the previous chunk. *)
        let len =
          if n - pos - len > 0 && n - pos - len < t.min_leaf && len = chunk_size then
            (n - pos + 1) / 2
          else len
        in
        let leaf = { seg = None; len = 0; plen = 0 } in
        write_leaf t leaf (Bytes.sub data pos len);
        go (pos + len) (Leaf leaf :: acc)
      end
    in
    go 0 []
  end

(* ---- Tree maintenance ----------------------------------------------------- *)

let inner_of children =
  let bytes = Array.fold_left (fun acc c -> acc + node_size c) 0 children in
  Inner { children; bytes }

(* Pack a child list into nodes of fan-out <= order, possibly several. *)
let group t nodes =
  let rec pack = function
    | [] -> []
    | nodes ->
        let n = List.length nodes in
        if n <= t.order then [ inner_of (Array.of_list nodes) ]
        else begin
          let take = (n + 1) / 2 in
          let take = Stdlib.min take t.order in
          let rec split k acc = function
            | rest when k = 0 -> (List.rev acc, rest)
            | x :: rest -> split (k - 1) (x :: acc) rest
            | [] -> (List.rev acc, [])
          in
          let first, rest = split take [] nodes in
          inner_of (Array.of_list first) :: pack rest
        end
  in
  pack nodes

(* Coalesce adjacent small leaves in a freshly rebuilt child list. *)
let coalesce t nodes =
  let rec go = function
    | Leaf a :: Leaf b :: rest
      when (a.len < t.min_leaf || b.len < t.min_leaf) && a.len + b.len <= t.max_leaf ->
        let data_a = read_leaf t a in
        let data_b = read_leaf t b in
        let combined = Bytes.cat data_a data_b in
        free_seg t b;
        write_leaf t a combined;
        Bess_util.Stats.incr t.stats "lob.coalesces";
        go (Leaf a :: rest)
    | x :: rest -> x :: go rest
    | [] -> []
  in
  go nodes

(* The splice primitive: within [node], delete [del] bytes at [pos] and
   insert [ins] at [pos]. Returns replacement nodes (possibly none, when
   the subtree becomes empty, or several, when leaves split). The caller
   guarantees 0 <= pos <= size node and pos + del <= size node. *)
let rec splice t node ~pos ~del ~ins =
  match node with
  | Leaf leaf ->
      let data = read_leaf t leaf in
      let prefix = Bytes.sub data 0 pos in
      let suffix = Bytes.sub data (pos + del) (Bytes.length data - pos - del) in
      let merged = Bytes.concat Bytes.empty [ prefix; ins; suffix ] in
      if Bytes.length merged = 0 then begin
        free_seg t leaf;
        []
      end
      else if Bytes.length merged <= t.max_leaf then begin
        write_leaf t leaf merged;
        [ Leaf leaf ]
      end
      else begin
        free_seg t leaf;
        leaves_for t merged
      end
  | Inner inner ->
      let out = ref [] in
      let emit n = out := n :: !out in
      let cursor = ref 0 in
      let remaining_del = ref del in
      let ins_pending = ref (Some ins) in
      Array.iter
        (fun child ->
          let csize = node_size child in
          let cstart = !cursor and cend = !cursor + csize in
          cursor := cend;
          (* Does the edit window [pos, pos+del] touch this child? The
             insert belongs to the child containing [pos] (or the first
             child whose end reaches pos, to handle pos at a boundary). *)
          let overlaps = pos < cend && pos + del > cstart in
          let insert_here = !ins_pending <> None && pos >= cstart && pos <= cend in
          if not (overlaps || insert_here) then emit child
          else begin
            let local_pos = Stdlib.max 0 (pos - cstart) in
            let local_del = Stdlib.min (csize - local_pos) !remaining_del in
            let local_ins =
              if insert_here then begin
                ins_pending := None;
                ins
              end
              else Bytes.create 0
            in
            remaining_del := !remaining_del - local_del;
            List.iter emit (splice t child ~pos:local_pos ~del:local_del ~ins:local_ins)
          end)
        inner.children;
      let children = coalesce t (List.rev !out) in
      (match children with
      | [] -> []
      | [ single ] -> [ single ]
      | many -> group t many)

(* Wrap splice results back into a single root. *)
let set_root t nodes =
  let rec wrap = function
    | [] -> Leaf { seg = None; len = 0; plen = 0 }
    | [ single ] -> single
    | many -> wrap (group t many)
  in
  t.root <- wrap nodes

let replace_range t ~pos ~del ins =
  let n = size t in
  if pos < 0 || del < 0 || pos + del > n then invalid_arg "Lob: range out of bounds";
  set_root t (splice t t.root ~pos ~del ~ins);
  Bess_util.Stats.incr t.stats "lob.splices"

(* ---- Public byte-range interface ------------------------------------------ *)

let insert t ~pos data = replace_range t ~pos ~del:0 data
let append t data = replace_range t ~pos:(size t) ~del:0 data
let delete t ~pos ~len = replace_range t ~pos ~del:len (Bytes.create 0)
let write t ~pos data = replace_range t ~pos ~del:(Stdlib.min (Bytes.length data) (size t - pos)) data

let truncate t new_size =
  let n = size t in
  if new_size < 0 || new_size > n then invalid_arg "Lob.truncate: bad size";
  delete t ~pos:new_size ~len:(n - new_size)

let read t ~pos ~len =
  let n = size t in
  if pos < 0 || len < 0 || pos + len > n then invalid_arg "Lob.read: range out of bounds";
  let out = Bytes.create len in
  let filled = ref 0 in
  let rec go node node_start =
    if !filled < len then
      match node with
      | Leaf leaf ->
          let cstart = node_start and cend = node_start + leaf.len in
          let lo = Stdlib.max pos cstart and hi = Stdlib.min (pos + len) cend in
          if lo < hi then begin
            let data = read_leaf t leaf in
            Bytes.blit data (lo - cstart) out (lo - pos) (hi - lo);
            filled := !filled + (hi - lo)
          end
      | Inner inner ->
          let cursor = ref node_start in
          Array.iter
            (fun child ->
              let csize = node_size child in
              if !cursor < pos + len && !cursor + csize > pos then go child !cursor;
              cursor := !cursor + csize)
            inner.children
  in
  go t.root 0;
  out

let to_bytes t = read t ~pos:0 ~len:(size t)

(* Release every segment the object owns. *)
let destroy t =
  let rec go = function
    | Leaf leaf -> free_seg t leaf
    | Inner inner -> Array.iter go inner.children
  in
  go t.root;
  t.root <- Leaf { seg = None; len = 0; plen = 0 }

(* ---- Descriptor (persisted in the overflow segment) ----------------------- *)

let rec encoded_node_size = function
  | Leaf _ -> 1 + 4 + 4 + Bess_storage.Seg_addr.encoded_size
  | Inner inner ->
      1 + 4 + Array.fold_left (fun acc c -> acc + encoded_node_size c) 0 inner.children

let encode t =
  let b = Bytes.create (encoded_node_size t.root) in
  let pos = ref 0 in
  let rec go = function
    | Leaf leaf ->
        Bess_util.Codec.set_u8 b !pos 0;
        Bess_util.Codec.set_u32 b (!pos + 1) leaf.len;
        Bess_util.Codec.set_u32 b (!pos + 5) leaf.plen;
        let seg =
          match leaf.seg with
          | Some s -> s
          | None -> { Bess_storage.Seg_addr.area = 0; first_page = 0; npages = 0 }
        in
        Bess_storage.Seg_addr.encode b (!pos + 9) seg;
        pos := !pos + 9 + Bess_storage.Seg_addr.encoded_size
    | Inner inner ->
        Bess_util.Codec.set_u8 b !pos 1;
        Bess_util.Codec.set_u32 b (!pos + 1) (Array.length inner.children);
        pos := !pos + 5;
        Array.iter go inner.children
  in
  go t.root;
  b

let decode ?max_leaf ?(order = 16) area b =
  let t = create ?max_leaf ~order area in
  let pos = ref 0 in
  let rec go () =
    let tag = Bess_util.Codec.get_u8 b !pos in
    match tag with
    | 0 ->
        let len = Bess_util.Codec.get_u32 b (!pos + 1) in
        let plen = Bess_util.Codec.get_u32 b (!pos + 5) in
        let seg = Bess_storage.Seg_addr.decode b (!pos + 9) in
        pos := !pos + 9 + Bess_storage.Seg_addr.encoded_size;
        let seg = if seg.npages = 0 then None else Some seg in
        Leaf { seg; len; plen }
    | 1 ->
        let n = Bess_util.Codec.get_u32 b (!pos + 1) in
        pos := !pos + 5;
        let children = Array.init n (fun _ -> go ()) in
        inner_of children
    | _ -> failwith "Lob.decode: corrupt descriptor"
  in
  t.root <- go ();
  t

(* ---- Invariants ------------------------------------------------------------ *)

let check t =
  let rec go depth = function
    | Leaf leaf ->
        if leaf.len < 0 || leaf.len > t.max_leaf then failwith "leaf size out of range";
        if leaf.len > 0 && leaf.seg = None then failwith "non-empty leaf without segment";
        (match (t.codec, leaf.seg) with
        | None, Some _ when leaf.plen <> leaf.len -> failwith "plen <> len without codec"
        | _ -> ());
        leaf.len
    | Inner inner ->
        if Array.length inner.children = 0 then failwith "empty inner node";
        if Array.length inner.children > t.order then failwith "fan-out exceeds order";
        if depth > 64 then failwith "tree too deep";
        let total = Array.fold_left (fun acc c -> acc + go (depth + 1) c) 0 inner.children in
        if total <> inner.bytes then failwith "cached byte count out of sync";
        total
  in
  ignore (go 0 t.root)

let depth t =
  let rec go = function
    | Leaf _ -> 1
    | Inner inner -> 1 + Array.fold_left (fun acc c -> Stdlib.max acc (go c)) 0 inner.children
  in
  go t.root
