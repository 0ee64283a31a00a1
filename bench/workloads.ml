(* Workload builders shared by the experiments: object graphs in BeSS and
   in the baseline stores, and page reference streams. All deterministic
   from explicit seeds. *)

module Vmem = Bess_vmem.Vmem
module Prng = Bess_util.Prng

(* The standard test record: one reference at offset 0, an int payload at
   offset 8, padding to [size]. *)
let node_size = 32

let node_type db =
  let types = Bess.Catalog.types (Bess.Db.catalog db) in
  match Bess.Type_desc.find_by_name types "bench_node" with
  | Some ty -> ty
  | None -> Bess.Type_desc.register types ~name:"bench_node" ~size:node_size ~ref_offsets:[| 0 |]

(* Distinct db ids keep areas from colliding when several live at once;
   the counter is bookkeeping, not workload state. *)
let next_db_id = ref 1000

(* [db_id] pins the id instead of drawing from the counter: area ids
   (and therefore page-key encodings) derive from it, so experiments
   that compare artifacts byte-for-byte across re-runs need the same id
   both times. *)
let fresh_db ?(n_areas = 1) ?cache_slots ?group_commit ?db_id () =
  let db_id =
    match db_id with
    | Some id -> id
    | None ->
        incr next_db_id;
        !next_db_id
  in
  let db = Bess.Db.create_memory ~n_areas ?cache_slots ~db_id () in
  (match group_commit with
  | None | Some Bess_wal.Group_commit.Immediate -> ()
  | Some p -> Bess.Server.set_group_policy (Bess.Db.server db) p);
  db

(* Build [n] nodes spread over segments of [per_seg] objects each, linked
   into a ring with [stride] hops (stride > 1 makes consecutive hops cross
   segments). Returns the session and the node addresses. Committed. *)
let build_ring ?(pool_slots = 4096) db ~n ~per_seg ~stride =
  let s = Bess.Db.session ~pool_slots db in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  let data_pages =
    (* room for per_seg nodes plus slack *)
    Stdlib.max 1 (((per_seg * node_size * 5 / 4) + 4095) / 4096)
  in
  let slotted_pages = Bess.Layout.slotted_pages ~n_slots:(per_seg + 4) ~page_size:4096 in
  let nodes =
    Array.init n (fun i ->
        ignore i;
        0)
  in
  let seg = ref None in
  let in_seg = ref 0 in
  for i = 0 to n - 1 do
    if !seg = None || !in_seg >= per_seg then begin
      seg := Some (Bess.Session.create_segment s ~slotted_pages ~data_pages ());
      in_seg := 0
    end;
    let sg = Option.get !seg in
    nodes.(i) <- Bess.Session.create_object s sg ty ~size:node_size;
    incr in_seg;
    Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s nodes.(i) + 8) i
  done;
  for i = 0 to n - 1 do
    let target = nodes.((i + stride) mod n) in
    Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s nodes.(i)) (Some target)
  done;
  Bess.Session.set_root s ~name:"ring_head" nodes.(0);
  Bess.Session.commit s;
  (s, nodes)

(* Follow the ring [hops] times from [start]; returns a checksum so the
   traversal cannot be optimised away. *)
let traverse_ring s ~start ~hops =
  let acc = ref 0 in
  let cur = ref start in
  for _ = 1 to hops do
    acc := !acc + Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s !cur + 8);
    match Bess.Session.read_ref s ~data_addr:(Bess.Session.obj_data s !cur) with
    | Some next -> cur := next
    | None -> failwith "broken ring"
  done;
  !acc

(* The same ring with physical OIDs, [per_seg] objects per segment. *)
let build_physical_ring ~n ~per_seg =
  let store = Bess_baseline.Physical_oid.create () in
  let nodes =
    Array.init n (fun i ->
        Bess_baseline.Physical_oid.create_object store ~seg:(i / per_seg)
          ~off:(i mod per_seg * node_size) ~size:node_size ~n_refs:1)
  in
  Array.iteri
    (fun i o -> Bess_baseline.Physical_oid.set_ref store o ~slot:0 nodes.((i + 1) mod n))
    nodes;
  (store, nodes)

(* ---- Page reference streams (E4) ---- *)

type stream = Zipf of float | Uniform | Scan_loop

let reference_stream prng ~kind ~n_pages ~length =
  match kind with
  | Zipf theta ->
      let sample = Prng.zipf prng ~n:n_pages ~theta in
      Array.init length (fun _ -> sample ())
  | Uniform -> Array.init length (fun _ -> Prng.int prng n_pages)
  | Scan_loop -> Array.init length (fun i -> i mod n_pages)

let stream_name = function
  | Zipf theta -> Printf.sprintf "zipf(%.1f)" theta
  | Uniform -> "uniform"
  | Scan_loop -> "scan-loop"

(* ---- A memory-faithful EOS-like baseline for E1 ----

   Comparing dereference mechanisms is only meaningful if both sides pay
   the same per-memory-access simulation cost. This store keeps object
   data *and* its OID hash table inside the same simulated VM the BeSS
   session uses, so a dereference costs: one field read (the OID), an
   open-addressing probe sequence (reads of bucket keys), and the value
   read -- exactly the memory traffic of a real OID-table dereference. *)

module Oid_vm = struct
  type t = {
    vmem : Vmem.t;
    table_base : int; (* open-addressing buckets: key i64, value i64 *)
    n_buckets : int;
    mutable next_addr : int;
    mutable next_onum : int;
    mutable accesses : int; (* simulated memory reads performed by derefs *)
  }

  let create ~capacity ~obj_size =
    let vmem = Vmem.create ~page_size:4096 () in
    let n_buckets =
      let rec pow2 k = if k >= 2 * capacity then k else pow2 (2 * k) in
      pow2 64
    in
    let table_pages = (n_buckets * 16 / 4096) + 1 in
    let data_pages = (capacity * obj_size / 4096) + 2 in
    let table_base = Vmem.reserve vmem table_pages in
    let data_base = Vmem.reserve vmem data_pages in
    (* Frames must be zeroed: the table's empty-bucket test is key = 0,
       and [Bytes.create] leaves arbitrary heap garbage that would turn
       probe-chain lengths (and the TLB hit count) into a function of
       allocator state. *)
    for i = 0 to table_pages - 1 do
      Vmem.map vmem (table_base + (i * 4096)) (Bytes.make 4096 '\000')
    done;
    for i = 0 to data_pages - 1 do
      Vmem.map vmem (data_base + (i * 4096)) (Bytes.make 4096 '\000')
    done;
    Vmem.set_prot vmem table_base table_pages Prot_read_write;
    Vmem.set_prot vmem data_base data_pages Prot_read_write;
    { vmem; table_base; n_buckets; next_addr = data_base; next_onum = 1; accesses = 0 }

  let mix onum = (onum * 0x9E3779B9) land max_int

  let insert t onum addr =
    let rec probe i =
      let b = t.table_base + (((mix onum + i) land (t.n_buckets - 1)) * 16) in
      if Vmem.read_i64 t.vmem b = 0 then begin
        Vmem.write_i64 t.vmem b onum;
        Vmem.write_i64 t.vmem (b + 8) addr
      end
      else probe (i + 1)
    in
    probe 0

  let create_object t ~size =
    let onum = t.next_onum in
    t.next_onum <- onum + 1;
    let addr = t.next_addr in
    t.next_addr <- addr + size;
    insert t onum addr;
    (onum, addr)

  (* The dereference under test: read the OID field, probe the table. *)
  let deref t ~data_addr =
    t.accesses <- t.accesses + 1;
    let onum = Vmem.read_i64 t.vmem data_addr in
    let rec probe i =
      t.accesses <- t.accesses + 2;
      let b = t.table_base + (((mix onum + i) land (t.n_buckets - 1)) * 16) in
      let k = Vmem.read_i64 t.vmem b in
      if k = onum then Vmem.read_i64 t.vmem (b + 8)
      else if k = 0 then failwith "Oid_vm: dangling OID"
      else probe (i + 1)
    in
    probe 0
end

(* Ring of [n] objects in the vmem-resident OID store; field 0 holds the
   next object's OID. *)
let build_oid_vm_ring ~n =
  let store = Oid_vm.create ~capacity:n ~obj_size:node_size in
  let objs = Array.init n (fun _ -> Oid_vm.create_object store ~size:node_size) in
  Array.iteri
    (fun i (_, addr) ->
      let next_onum, _ = objs.((i + 1) mod n) in
      Vmem.write_i64 store.Oid_vm.vmem addr next_onum)
    objs;
  (store, objs)
