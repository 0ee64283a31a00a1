(* Baseline: a flat on-disk blob for large objects.

   The structure the segment-tree of [3,4] improves on: the object is one
   contiguous byte run on storage. Reads are ideal, but an insert or
   delete at byte position p rewrites everything from p to the end, and
   growth reallocates the whole run. Experiment E5 measures page traffic
   against {!Bess_largeobj.Lob}. *)

module Area = Bess_storage.Area

type t = {
  area : Area.t;
  mutable first_page : int;
  mutable npages : int; (* allocated *)
  mutable len : int; (* logical bytes *)
  stats : Bess_util.Stats.t;
}

let create area =
  let stats = Bess_util.Stats.create () in
  Bess_obs.Registry.register_stats "flat" stats;
  { area; first_page = 0; npages = 0; len = 0; stats }

let stats t = t.stats
let size t = t.len

let ps t = Area.page_size t.area

let read_all t =
  let out = Bytes.create (t.npages * ps t) in
  let buf = Bytes.create (ps t) in
  for i = 0 to t.npages - 1 do
    Area.read_page_into t.area (t.first_page + i) buf;
    Bytes.blit buf 0 out (i * ps t) (ps t)
  done;
  Bess_util.Stats.add t.stats "flat.pages_read" t.npages;
  Bytes.sub out 0 t.len

let write_all t data =
  let need = Stdlib.max 1 ((Bytes.length data + ps t - 1) / ps t) in
  if need > t.npages || t.npages = 0 then begin
    if t.npages > 0 then Area.free t.area ~first_page:t.first_page;
    match Area.alloc t.area ~npages:need with
    | Some fp ->
        t.first_page <- fp;
        t.npages <- need
    | None -> failwith "Flat_blob: out of space"
  end;
  let buf = Bytes.create (ps t) in
  for i = 0 to need - 1 do
    Bytes.fill buf 0 (ps t) '\000';
    let off = i * ps t in
    let chunk = Stdlib.min (ps t) (Bytes.length data - off) in
    if chunk > 0 then Bytes.blit data off buf 0 chunk;
    Area.write_page t.area (t.first_page + i) buf
  done;
  Bess_util.Stats.add t.stats "flat.pages_written" need;
  t.len <- Bytes.length data

let read t ~pos ~len =
  (* Reading only touches the pages covering the range. *)
  let p0 = pos / ps t and p1 = (pos + len - 1) / ps t in
  Bess_util.Stats.add t.stats "flat.pages_read" (Stdlib.max 0 (p1 - p0 + 1));
  let all =
    let out = Bytes.create (t.npages * ps t) in
    let buf = Bytes.create (ps t) in
    for i = p0 to p1 do
      Area.read_page_into t.area (t.first_page + i) buf;
      Bytes.blit buf 0 out (i * ps t) (ps t)
    done;
    out
  in
  Bytes.sub all pos len

(* Any structural edit rewrites the tail. *)
let splice t ~pos ~del ins =
  let data = read_all t in
  let prefix = Bytes.sub data 0 pos in
  let suffix = Bytes.sub data (pos + del) (Bytes.length data - pos - del) in
  write_all t (Bytes.concat Bytes.empty [ prefix; ins; suffix ])

let insert t ~pos data = splice t ~pos ~del:0 data
let append t data = splice t ~pos:t.len ~del:0 data
let delete t ~pos ~len = splice t ~pos ~del:len (Bytes.create 0)

let write t ~pos data =
  (* In-place overwrite: only the covered pages are rewritten. *)
  if pos + Bytes.length data <= t.len then begin
    let p0 = pos / ps t and p1 = (pos + Bytes.length data - 1) / ps t in
    let buf = Bytes.create (ps t) in
    for i = p0 to p1 do
      Area.read_page_into t.area (t.first_page + i) buf;
      let page_lo = i * ps t in
      let lo = Stdlib.max pos page_lo and hi = Stdlib.min (pos + Bytes.length data) (page_lo + ps t) in
      Bytes.blit data (lo - pos) buf (lo - page_lo) (hi - lo);
      Area.write_page t.area (t.first_page + i) buf
    done;
    Bess_util.Stats.add t.stats "flat.pages_read" (p1 - p0 + 1);
    Bess_util.Stats.add t.stats "flat.pages_written" (p1 - p0 + 1)
  end
  else splice t ~pos ~del:(Stdlib.max 0 (t.len - pos)) data

let destroy t =
  if t.npages > 0 then Area.free t.area ~first_page:t.first_page;
  t.npages <- 0;
  t.len <- 0
