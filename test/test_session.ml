(* End-to-end tests of the session engine: the three-wave fault scheme,
   swizzling, write detection, commit/abort, corruption guard, OIDs. *)

module Vmem = Bess_vmem.Vmem

let fresh_db =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Bess.Db.create_memory ~db_id:!counter ()

(* A linked-record type: 16 bytes payload, one reference at offset 0,
   an int field at offset 8. *)
let node_type db =
  Bess.Type_desc.register
    (Bess.Catalog.types (Bess.Db.catalog db))
    ~name:"node" ~size:16 ~ref_offsets:[| 0 |]

let test_create_read_write () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:2 () in
  let obj = Bess.Session.create_object s seg ty ~size:16 in
  let data = Bess.Session.obj_data s obj in
  Vmem.write_i64 (Bess.Session.mem s) (data + 8) 4242;
  Alcotest.(check int) "read back" 4242 (Vmem.read_i64 (Bess.Session.mem s) (data + 8));
  Alcotest.(check int) "size" 16 (Bess.Session.obj_size s obj);
  Alcotest.(check string) "type" "node" (Bess.Session.obj_type s obj).name;
  Bess.Session.commit s

let test_refs_and_traversal () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  let seg1 = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:2 () in
  let seg2 = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:2 () in
  let a = Bess.Session.create_object s seg1 ty ~size:16 in
  let b = Bess.Session.create_object s seg2 ty ~size:16 in
  let c = Bess.Session.create_object s seg1 ty ~size:16 in
  (* a -> b -> c, crossing segments both ways *)
  Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s a) (Some b);
  Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s b) (Some c);
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s c + 8) 777;
  Bess.Session.set_root s ~name:"a" a;
  Bess.Session.commit s;
  (* Traverse from a fresh session: every fault fires. *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let a' = Option.get (Bess.Session.root s2 "a") in
  let b' = Option.get (Bess.Session.read_ref s2 ~data_addr:(Bess.Session.obj_data s2 a')) in
  let c' = Option.get (Bess.Session.read_ref s2 ~data_addr:(Bess.Session.obj_data s2 b')) in
  Alcotest.(check int) "payload through two hops" 777
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 c' + 8));
  Bess.Session.commit s2

let test_commit_visibility () =
  let db = fresh_db () in
  let s1 = Bess.Db.session db in
  let ty = node_type db in
  Bess.Session.begin_txn s1;
  let seg = Bess.Session.create_segment s1 ~slotted_pages:1 ~data_pages:1 () in
  let obj = Bess.Session.create_object s1 seg ty ~size:16 in
  Vmem.write_i64 (Bess.Session.mem s1) (Bess.Session.obj_data s1 obj + 8) 99;
  Bess.Session.set_root s1 ~name:"obj" obj;
  Bess.Session.commit s1;
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let obj2 = Option.get (Bess.Session.root s2 "obj") in
  Alcotest.(check int) "committed value visible" 99
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 obj2 + 8));
  Bess.Session.commit s2

let test_abort_restores () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let obj = Bess.Session.create_object s seg ty ~size:16 in
  let data = Bess.Session.obj_data s obj in
  Vmem.write_i64 (Bess.Session.mem s) (data + 8) 1;
  Bess.Session.set_root s ~name:"obj" obj;
  Bess.Session.commit s;
  Bess.Session.begin_txn s;
  Vmem.write_i64 (Bess.Session.mem s) (data + 8) 2;
  Alcotest.(check int) "uncommitted write visible locally" 2
    (Vmem.read_i64 (Bess.Session.mem s) (data + 8));
  Bess.Session.abort s;
  Bess.Session.begin_txn s;
  Alcotest.(check int) "abort restored the old value" 1
    (Vmem.read_i64 (Bess.Session.mem s) (data + 8));
  Bess.Session.commit s

let test_corruption_guard () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let obj = Bess.Session.create_object s seg ty ~size:16 in
  (* A stray store aimed at the object *header* (a control structure) is
     trapped before it lands. *)
  let trapped =
    try
      Vmem.write_i64 (Bess.Session.mem s) obj 0xDEAD;
      false
    with Bess.Session.Corruption _ -> true
  in
  Alcotest.(check bool) "stray write into slot page trapped" true trapped;
  (* The header is unharmed: the object still reads correctly. *)
  Alcotest.(check int) "object survives" 16 (Bess.Session.obj_size s obj);
  Bess.Session.commit s

let test_oid_roundtrip_and_staleness () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let obj = Bess.Session.create_object s seg ty ~size:16 in
  let oid = Bess.Session.oid_of s obj in
  Alcotest.(check bool) "by_oid resolves" true (Bess.Session.by_oid s oid = obj);
  Bess.Session.delete_object s obj;
  let stale = try ignore (Bess.Session.by_oid s oid); false with Bess.Session.Stale_oid _ -> true in
  Alcotest.(check bool) "stale OID detected after delete" true stale;
  (* Slot reuse bumps the uniquifier: the new tenant gets a distinct OID. *)
  let obj2 = Bess.Session.create_object s seg ty ~size:16 in
  let oid2 = Bess.Session.oid_of s obj2 in
  Alcotest.(check bool) "same slot reused" true (Bess.Oid.(oid2.seg = oid.seg && oid2.slot = oid.slot));
  Alcotest.(check bool) "uniquifier differs" false (Bess.Oid.equal oid oid2);
  Bess.Session.commit s

let test_roots_referential_integrity () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let obj = Bess.Session.create_object s seg ty ~size:16 in
  Bess.Session.set_root s ~name:"it" obj;
  Alcotest.(check bool) "root resolves" true (Bess.Session.root s "it" = Some obj);
  (* Removing the object removes its name (section 2.5). *)
  Bess.Session.delete_object s obj;
  Alcotest.(check bool) "root gone with object" true
    (Bess.Catalog.find_root (Bess.Db.catalog db) "it" = None);
  Bess.Session.commit s

let test_null_and_ref_update () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let a = Bess.Session.create_object s seg ty ~size:16 in
  let b = Bess.Session.create_object s seg ty ~size:16 in
  let da = Bess.Session.obj_data s a in
  Alcotest.(check bool) "fresh ref is null" true (Bess.Session.read_ref s ~data_addr:da = None);
  Bess.Session.write_ref s ~data_addr:da (Some b);
  Alcotest.(check bool) "ref set" true (Bess.Session.read_ref s ~data_addr:da = Some b);
  Bess.Session.write_ref s ~data_addr:da None;
  Alcotest.(check bool) "ref cleared" true (Bess.Session.read_ref s ~data_addr:da = None);
  Bess.Session.commit s

let test_interdb_forward () =
  let db1 = Bess.Db.create_memory ~db_id:71 () in
  let db2 = Bess.Db.create_memory ~db_id:72 () in
  let s = Bess.Db.session db1 in
  Bess.Db.attach db2 s;
  let ty1 = node_type db1 in
  let ty2 = node_type db2 in
  Bess.Session.begin_txn s;
  let seg1 = Bess.Session.create_segment s ~db_id:71 ~slotted_pages:1 ~data_pages:1 () in
  let seg2 = Bess.Session.create_segment s ~db_id:72 ~slotted_pages:1 ~data_pages:1 () in
  let a = Bess.Session.create_object s seg1 ty1 ~size:16 in
  let b = Bess.Session.create_object s seg2 ty2 ~size:16 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s b + 8) 555;
  (* Cross-database reference: stored through a forward object, read back
     transparently. *)
  Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s a) (Some b);
  let b' = Option.get (Bess.Session.read_ref s ~data_addr:(Bess.Session.obj_data s a)) in
  Alcotest.(check bool) "forward chases to the target" true (b' = b);
  Alcotest.(check int) "target payload" 555
    (Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s b' + 8));
  (* This was a distributed transaction: 2PC committed on both servers. *)
  Bess.Session.commit s;
  let s2 = Bess.Db.session db1 in
  Bess.Db.attach db2 s2;
  Bess.Session.begin_txn s2;
  ignore s2

let test_many_objects_many_segments () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  let segs =
    List.init 4 (fun _ -> Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:4 ())
  in
  let objs =
    List.concat_map
      (fun seg -> List.init 50 (fun i ->
           let o = Bess.Session.create_object s seg ty ~size:16 in
           Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) i;
           o))
      segs
  in
  (* Chain them all. *)
  let rec link = function
    | a :: (b :: _ as rest) ->
        Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s a) (Some b);
        link rest
    | _ -> ()
  in
  link objs;
  Bess.Session.set_root s ~name:"head" (List.hd objs);
  Bess.Session.commit s;
  (* Fresh session walks the chain. *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let rec walk addr n =
    match Bess.Session.read_ref s2 ~data_addr:(Bess.Session.obj_data s2 addr) with
    | Some next -> walk next (n + 1)
    | None -> n + 1
  in
  let head = Option.get (Bess.Session.root s2 "head") in
  Alcotest.(check int) "chain length" 200 (walk head 0);
  Bess.Session.commit s2

let test_segment_full () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let full =
    try
      for _ = 1 to 10_000 do
        ignore (Bess.Session.create_object s seg ty ~size:16)
      done;
      false
    with Bess.Session.Segment_full _ -> true
  in
  Alcotest.(check bool) "segment fills up" true full;
  Bess.Session.commit s

(* A ring of [n] 32-byte nodes, [per_seg] to a segment: the reference
   at 0, the ring position at 8, an update counter at 16. The building
   session drops its cache, so only the returned OIDs lead in. *)
let build_ring ~n ~per_seg =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let mem = Bess.Session.mem s in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"ring" ~size:32
      ~ref_offsets:[| 0 |]
  in
  let slotted_pages = Bess.Layout.slotted_pages ~n_slots:per_seg ~page_size:4096 in
  let data_pages = ((per_seg * 32) + 4095) / 4096 in
  Bess.Session.begin_txn s;
  let seg = ref None in
  let nodes =
    Array.init n (fun i ->
        if i mod per_seg = 0 then
          seg := Some (Bess.Session.create_segment s ~slotted_pages ~data_pages ());
        let a = Bess.Session.create_object s (Option.get !seg) ty ~size:32 in
        Vmem.write_i64 mem (Bess.Session.obj_data s a + 8) i;
        a)
  in
  Array.iteri
    (fun i a ->
      Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s a) (Some nodes.((i + 1) mod n)))
    nodes;
  let oids = Array.map (Bess.Session.oid_of s) nodes in
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  (db, oids)

(* Follow [hops] references from [start]; the sum of the positions read. *)
let walk_ring s start hops =
  let mem = Bess.Session.mem s in
  let cur = ref start and sum = ref 0 in
  for _ = 1 to hops do
    let d = Bess.Session.obj_data s !cur in
    sum := !sum + Vmem.read_i64 mem (d + 8);
    match Bess.Session.read_ref s ~data_addr:d with
    | Some next -> cur := next
    | None -> Alcotest.fail "ring reference reads as null"
  done;
  !sum

(* Two sessions whose pools are smaller than the working set take turns
   traversing and updating a ring; each commit calls the other session
   back. Slot pages stay pinned, so the clock sweeps them to protected
   and evicts data pages, also in the middle of a fault wave. Used to
   die with Access_violation: the wave read slot pages through protected
   accesses ("recursive fault in handler"), and a wave's own loads could
   protect or evict the page it was faulting in ("fault handler did not
   resolve access"). *)
let test_small_pool_ring () =
  let n = 5000 and per_seg = 500 and hops = 300 and updates = 4 and txns = 40 in
  let db, oids = build_ring ~n ~per_seg in
  (* 10 segments of 8 slot pages and 4 data pages: 120 pages, of which
     the 80 slot pages stay pinned. Six frames are left for data pages,
     the write set pins up to four of them, and a whole-segment data
     fault loads four: the wave evicts its own pages. *)
  let clients = Array.init 2 (fun _ -> Bess.Db.session ~pool_slots:86 db) in
  let prng = Bess_util.Prng.create 5 in
  for k = 0 to txns - 1 do
    let s = clients.(k land 1) in
    let mem = Bess.Session.mem s in
    let start = Bess_util.Prng.int prng n in
    Bess.Session.begin_txn s;
    let expected = List.fold_left ( + ) 0 (List.init hops (fun h -> (start + h) mod n)) in
    Alcotest.(check int) "traversal checksum" expected
      (walk_ring s (Bess.Session.by_oid s oids.(start)) hops);
    for _ = 1 to updates do
      let d = Bess.Session.obj_data s (Bess.Session.by_oid s oids.(Bess_util.Prng.int prng n)) + 16 in
      Vmem.write_i64 mem d (Vmem.read_i64 mem d + 1)
    done;
    Bess.Session.commit s
  done;
  Alcotest.(check bool) "the pools replaced pages" true
    (Array.exists
       (fun s -> Bess_util.Stats.get (Bess_cache.Cache.stats (Bess.Session.pool s)) "cache.evictions" > 0)
       clients);
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let total =
    Array.fold_left
      (fun acc oid ->
        acc + Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s (Bess.Session.by_oid s oid) + 16))
      0 oids
  in
  Bess.Session.commit s;
  Alcotest.(check int) "every update committed" (txns * updates) total

(* A warm traversal allocates a bounded number of minor words per hop:
   the [Some] that [read_ref] returns and nothing else (no TLB entry,
   region lookup, slot tuple or counter-name key). *)
let test_traversal_allocation () =
  let hops = 10_000 and max_words_per_hop = 4 in
  let db, oids = build_ring ~n:1000 ~per_seg:250 in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let start = Bess.Session.by_oid s oids.(0) in
  ignore (walk_ring s start 2000);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (walk_ring s start hops));
  let per_hop = (Gc.minor_words () -. w0) /. float_of_int hops in
  Bess.Session.commit s;
  if per_hop > float_of_int max_words_per_hop then
    Alcotest.failf "%.1f minor words per hop, bound %d" per_hop max_words_per_hop

(* Minor words per steady-state write transaction: four counter updates
   on a resident ring, each a write fault on its page, then the commit.
   The write fault keeps a blit of the swizzled frame and records
   [vmem.fault_work] through a handle; commit diffs the swizzled images
   and canonicalises only the reference words inside the shipped ranges.
   A fault without a span collector builds no closure. Measured at
   1,066 words; the write path before these changes allocated 1,149. *)
let write_path_words_per_txn () =
  let n = 1000 and updates = 4 and txns = 400 in
  let db, oids = build_ring ~n ~per_seg:250 in
  let s = Bess.Db.session db in
  let mem = Bess.Session.mem s in
  Bess.Session.begin_txn s;
  let nodes = Array.map (Bess.Session.by_oid s) oids in
  ignore (walk_ring s nodes.(0) n);
  Bess.Session.commit s;
  let prng = Bess_util.Prng.create 3 in
  let txn () =
    Bess.Session.begin_txn s;
    for _ = 1 to updates do
      let d = Bess.Session.obj_data s nodes.(Bess_util.Prng.int prng n) + 16 in
      Vmem.write_i64 mem d (Vmem.read_i64 mem d + 1)
    done;
    Bess.Session.commit s
  in
  for _ = 1 to txns do txn () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to txns do txn () done;
  (Gc.minor_words () -. w0) /. float_of_int txns

let test_write_path_allocation () =
  let bound = 1100.0 in
  let per_txn = write_path_words_per_txn () in
  if per_txn > bound then Alcotest.failf "%.1f minor words per transaction, bound %.0f" per_txn bound

(* Before-images are page buffers the session recycles when a
   transaction ends. Commit a write to page A; then write page B in a
   transaction whose before-image reuses A's buffer, and abort: B comes
   back byte for byte, and the diff shipped for A is unchanged. *)
let recycled_before_image mode () =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  let base =
    match mode with
    | `Direct -> Bess.Fetcher.direct ~client_id:7001 server
    | `Remote ->
        let net = Bess.Remote.network () in
        Bess.Remote.serve net server;
        Bess.Remote.fetcher net ~client_id:7001 ~server_id:(Bess.Db.db_id db)
  in
  let shipped = ref [] in
  let fetcher =
    { base with
      Bess.Fetcher.f_commit =
        (fun ~txn updates ->
          shipped := updates;
          base.f_commit ~txn updates) }
  in
  let s =
    Bess.Session.create ~db_id:(Bess.Db.db_id db) ~catalog:(Bess.Db.catalog db) ~fetcher
      ~default_area:(Bess.Db.default_area db) ()
  in
  let mem = Bess.Session.mem s in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"blk" ~size:1000
      ~ref_offsets:[||]
  in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:2 () in
  let objs =
    Array.init 6 (fun i ->
        let o = Bess.Session.create_object s seg ty ~size:1000 in
        Vmem.write_i64 mem (Bess.Session.obj_data s o) (100 + i);
        o)
  in
  Bess.Session.commit s;
  let vm_page o = Bess.Session.obj_data s o / 4096 * 4096 in
  let a = objs.(0) in
  let b = Option.get (Array.find_opt (fun o -> vm_page o <> vm_page a) objs) in
  let only_before_image () =
    match Bess_cache.Page_id.Tbl.fold (fun _ we acc -> we :: acc) (Bess.Session.write_set_table s) [] with
    | [ we ] -> we.Bess.Session.we_before
    | _ -> Alcotest.fail "expected one page in the write set"
  in
  let copy_updates () =
    List.map
      (fun (u : Bess.Server.update) -> (u.page, u.offset, Bytes.copy u.before, Bytes.copy u.after))
      !shipped
  in
  Bess.Session.begin_txn s;
  Vmem.write_i64 mem (Bess.Session.obj_data s a) 4242;
  let buf_a = only_before_image () in
  Bess.Session.commit s;
  let diff_a = copy_updates () in
  Bess.Session.begin_txn s;
  let image_b = Bytes.copy (Option.get (Vmem.frame_at mem (vm_page b))) in
  Vmem.write_i64 mem (Bess.Session.obj_data s b) 9999;
  Alcotest.(check bool) "B's before-image reuses A's buffer" true (only_before_image () == buf_a);
  Bess.Session.abort s;
  Alcotest.(check bytes) "B restored byte for byte" image_b
    (Option.get (Vmem.frame_at mem (vm_page b)));
  Alcotest.(check bool) "A's shipped diff unchanged" true (copy_updates () = diff_a);
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let value o = Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 (Bess.Session.by_oid s2 (Bess.Session.oid_of s o))) in
  Alcotest.(check int) "A committed" 4242 (value a);
  Alcotest.(check bool) "B untouched at the server" true (value b <> 9999);
  Bess.Session.commit s2

(* Words allocated straight on the major heap (blocks too large for the
   minor heap, such as a 4 KB page) since the program started. *)
let direct_major_words () =
  let s = Gc.quick_stat () in
  s.major_words -. s.promoted_words

(* Steady-state write transactions on a pool smaller than the working
   set: data faults fetch into the session's staging page and write
   faults take recycled before-image buffers, so direct major-heap words
   per transaction stay far below one page (513 words). *)
let test_write_fault_major_allocation () =
  let max_words_per_txn = 128.0 in
  let n = 5000 and updates = 8 and txns = 200 in
  let db, oids = build_ring ~n ~per_seg:500 in
  let s = Bess.Db.session ~pool_slots:96 db in
  let mem = Bess.Session.mem s in
  let prng = Bess_util.Prng.create 11 in
  let txn () =
    Bess.Session.begin_txn s;
    for _ = 1 to updates do
      let d = Bess.Session.obj_data s (Bess.Session.by_oid s oids.(Bess_util.Prng.int prng n)) + 16 in
      Vmem.write_i64 mem d (Vmem.read_i64 mem d + 1)
    done;
    Bess.Session.commit s
  in
  for _ = 1 to txns do txn () done;
  let faults () = Bess_util.Stats.get (Bess.Session.stats s) "session.data_faults" in
  let f0 = faults () and w0 = direct_major_words () in
  for _ = 1 to txns do txn () done;
  let per_txn = (direct_major_words () -. w0) /. float_of_int txns in
  Alcotest.(check bool) "pages were refetched" true (faults () > f0);
  if per_txn > max_words_per_txn then
    Alcotest.failf "%.0f direct major words per transaction, bound %.0f" per_txn
      max_words_per_txn

(* Minor words the commit of one transaction creating an [n]-object
   ring (every page new, so every page ships) allocates. *)
let ring_commit_words n =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"ring" ~size:32
      ~ref_offsets:[| 0 |]
  in
  let per_seg = 500 in
  let slotted_pages = Bess.Layout.slotted_pages ~n_slots:per_seg ~page_size:4096 in
  Bess.Session.begin_txn s;
  let seg = ref None in
  let nodes =
    Array.init n (fun i ->
        if i mod per_seg = 0 then
          seg := Some (Bess.Session.create_segment s ~slotted_pages ~data_pages:4 ());
        Bess.Session.create_object s (Option.get !seg) ty ~size:32)
  in
  Array.iteri
    (fun i a ->
      Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s a) (Some nodes.((i + 1) mod n)))
    nodes;
  let w0 = Gc.minor_words () in
  Bess.Session.commit s;
  Gc.minor_words () -. w0

(* Shipping a commit's updates costs time and memory linear in the
   write set: four times the pages, at most five times the words. *)
let test_commit_allocation_linear () =
  let small = ring_commit_words 2_000 and large = ring_commit_words 8_000 in
  if large > 5.0 *. small then
    Alcotest.failf "commit of 4x the objects allocated %.1fx the minor words" (large /. small)

(* A committed transparent large object with payload [v] at its start,
   in a segment with room for more objects. *)
let large_object_db v =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let big = Bess.Session.create_large_object s seg ~size:10_000 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s big) v;
  Bess.Session.commit s;
  (db, s, seg, big)

(* The large object is readable and writable in [s], and a fresh
   session sees the write. *)
let check_large_object db s big ~was ~now =
  Bess.Session.begin_txn s;
  let d = Bess.Session.obj_data s big in
  Alcotest.(check int) "large object reads back" was (Vmem.read_i64 (Bess.Session.mem s) d);
  Vmem.write_i64 (Bess.Session.mem s) d now;
  Bess.Session.commit s;
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let big2 = Bess.Session.by_oid s2 (Bess.Session.oid_of s big) in
  Alcotest.(check int) "fresh session sees the write" now
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 big2));
  Bess.Session.commit s2

(* Abort restores a slot page from its disk-form before-image; a
   resolved large object's DP must come back with it. It used to come
   back as 0: the next read raised [Access_violation] and a write
   "page not mapped". *)
let test_abort_keeps_large_object () =
  let db, s, seg, big = large_object_db 11 in
  let ty = node_type db in
  Bess.Session.begin_txn s;
  ignore (Bess.Session.create_object s seg ty ~size:16);
  Bess.Session.abort s;
  check_large_object db s big ~was:11 ~now:12

(* The same after a slot page is called back by another session's
   commit and refetched. *)
let test_callback_keeps_large_object () =
  let db, s, seg, big = large_object_db 21 in
  let ty = node_type db in
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let seg2 = Bess.Session.get_seg s2 ~db_id:seg.Bess.Session.db_id ~seg_id:seg.seg_id in
  ignore (Bess.Session.create_object s2 seg2 ty ~size:16);
  Bess.Session.commit s2;
  Alcotest.(check bool) "the slot page was called back" true
    (Bess_util.Stats.get (Bess.Session.stats s) "session.callbacks_dropped" > 0);
  check_large_object db s big ~was:21 ~now:22

(* Deleting a mapped large object gives up its range. It used to forget
   the object's disk segment before unmapping its pages, and raised
   [Not_found]. *)
let test_delete_large_object () =
  let db, s, seg, big = large_object_db 31 in
  let ty = node_type db in
  let oid = Bess.Session.oid_of s big in
  Bess.Session.begin_txn s;
  ignore (Bess.Session.obj_data s big);
  Bess.Session.delete_object s big;
  let o = Bess.Session.create_object s seg ty ~size:16 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) 32;
  Bess.Session.commit s;
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  Alcotest.(check bool) "the large object is gone" true
    (match Bess.Session.by_oid s2 oid with
    | _ -> false
    | exception Bess.Session.Stale_oid _ -> true);
  Alcotest.(check int) "its slot holds the new object" 32
    (Vmem.read_i64 (Bess.Session.mem s2)
       (Bess.Session.obj_data s2 (Bess.Session.by_oid s2 (Bess.Session.oid_of s o)) + 8));
  Bess.Session.commit s2

let suite =
  [
    Alcotest.test_case "create_read_write" `Quick test_create_read_write;
    Alcotest.test_case "refs_and_traversal" `Quick test_refs_and_traversal;
    Alcotest.test_case "commit_visibility" `Quick test_commit_visibility;
    Alcotest.test_case "abort_restores" `Quick test_abort_restores;
    Alcotest.test_case "corruption_guard" `Quick test_corruption_guard;
    Alcotest.test_case "oid_roundtrip_staleness" `Quick test_oid_roundtrip_and_staleness;
    Alcotest.test_case "roots_referential_integrity" `Quick test_roots_referential_integrity;
    Alcotest.test_case "null_and_ref_update" `Quick test_null_and_ref_update;
    Alcotest.test_case "interdb_forward" `Quick test_interdb_forward;
    Alcotest.test_case "many_objects_many_segments" `Quick test_many_objects_many_segments;
    Alcotest.test_case "segment_full" `Quick test_segment_full;
    Alcotest.test_case "small_pool_ring" `Quick test_small_pool_ring;
    Alcotest.test_case "traversal_allocation" `Quick test_traversal_allocation;
    Alcotest.test_case "write_path_allocation" `Quick test_write_path_allocation;
    Alcotest.test_case "recycled_before_image_direct" `Quick (recycled_before_image `Direct);
    Alcotest.test_case "recycled_before_image_remote" `Quick (recycled_before_image `Remote);
    Alcotest.test_case "write_fault_major_allocation" `Quick test_write_fault_major_allocation;
    Alcotest.test_case "commit_allocation_linear" `Quick test_commit_allocation_linear;
    Alcotest.test_case "abort_keeps_large_object" `Quick test_abort_keeps_large_object;
    Alcotest.test_case "callback_keeps_large_object" `Quick test_callback_keeps_large_object;
    Alcotest.test_case "delete_large_object" `Quick test_delete_large_object;
  ]
