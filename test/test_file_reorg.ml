(* Files, multifiles, cursors; and on-the-fly reorganisation (the claim
   of section 2.1: references survive relocation, compaction, resize and
   file movement). *)

module Vmem = Bess_vmem.Vmem
module Lob = Bess_largeobj.Lob

let fresh_db =
  let counter = ref 100 in
  fun ?(n_areas = 1) () ->
    incr counter;
    Bess.Db.create_memory ~n_areas ~db_id:!counter ()

let rec_type db =
  Bess.Type_desc.register
    (Bess.Catalog.types (Bess.Db.catalog db))
    ~name:"rec" ~size:24 ~ref_offsets:[| 0 |]

let payload s obj = Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s obj + 8)
let set_payload s obj v = Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s obj + 8) v

let test_file_growth_and_scan () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = rec_type db in
  Bess.Session.begin_txn s;
  let f = Bess.Bess_file.create s ~name:"people" ~data_pages:2 () in
  for i = 1 to 500 do
    let o = Bess.Bess_file.new_object f ty ~size:24 in
    set_payload s o i
  done;
  Bess.Session.commit s;
  Alcotest.(check bool) "file grew to several segments" true
    (List.length (Bess.Bess_file.seg_ids f) > 1);
  Bess.Session.begin_txn s;
  Alcotest.(check int) "count" 500 (Bess.Bess_file.count f);
  let sum = Bess.Bess_file.fold f (fun acc o -> acc + payload s o) 0 in
  Alcotest.(check int) "sum of payloads" (500 * 501 / 2) sum;
  Bess.Session.commit s

let test_cursor () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = rec_type db in
  Bess.Session.begin_txn s;
  let f = Bess.Bess_file.create s ~name:"c" ~data_pages:1 () in
  for i = 1 to 50 do
    set_payload s (Bess.Bess_file.new_object f ty ~size:24) i
  done;
  let c = Bess.Bess_file.cursor f in
  let seen = ref 0 in
  let rec drain () =
    match Bess.Bess_file.next c with
    | Some _ ->
        incr seen;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "cursor visits all" 50 !seen;
  Bess.Session.commit s

let test_multifile_striping () =
  let db = fresh_db ~n_areas:3 () in
  let s = Bess.Db.session db in
  let ty = rec_type db in
  Bess.Session.begin_txn s;
  let f = Bess.Bess_file.create s ~name:"media" ~multi:true ~data_pages:1 () in
  for i = 1 to 400 do
    set_payload s (Bess.Bess_file.new_object f ty ~size:24) i
  done;
  Bess.Session.commit s;
  Alcotest.(check bool) "multifile" true (Bess.Bess_file.is_multifile f);
  (* Segments must be spread evenly over all three areas. *)
  let seg_areas =
    List.map
      (fun seg_id ->
        (Bess.Session.get_seg s ~db_id:(Bess.Db.db_id db) ~seg_id).Bess.Session.slotted_disk
          .Bess_storage.Seg_addr.area)
      (Bess.Bess_file.seg_ids f)
  in
  let areas = List.sort_uniq compare seg_areas in
  Alcotest.(check int) "segments in 3 areas" 3 (List.length areas);
  let counts = List.map (fun a -> List.length (List.filter (( = ) a) seg_areas)) areas in
  Alcotest.(check bool) "evenly: per-area counts differ by at most one" true
    (List.fold_left max 0 counts - List.fold_left min max_int counts <= 1);
  Bess.Session.begin_txn s;
  let visited, streams = Bess.Bess_file.striped_scan f (fun _ -> ()) in
  Alcotest.(check int) "striped scan visits all" 400 visited;
  Alcotest.(check int) "stripe streams" 3 streams;
  Bess.Session.commit s

(* Relocation: references and payloads survive; a reader in a *fresh*
   session (which must fetch from the new disk location) agrees. *)
let test_relocate_data_segment () =
  let db = fresh_db ~n_areas:2 () in
  let s = Bess.Db.session db in
  let ty = rec_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:2 () in
  let objs = Array.init 20 (fun i ->
      let o = Bess.Session.create_object s seg ty ~size:24 in
      set_payload s o (i * 11);
      o)
  in
  Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s objs.(0)) (Some objs.(19));
  Bess.Session.set_root s ~name:"o0" objs.(0);
  Bess.Session.commit s;
  let other_area = List.nth (Bess.Db.area_ids db) 1 in
  let old_disk = seg.Bess.Session.data_disk in
  Bess.Reorg.relocate_data_segment s seg ~to_area:other_area;
  Alcotest.(check bool) "disk address changed" false
    (Bess_storage.Seg_addr.equal old_disk seg.Bess.Session.data_disk);
  (* Same session: references still valid, zero fixups. *)
  Bess.Session.begin_txn s;
  Alcotest.(check int) "payload after relocation" (19 * 11) (payload s objs.(19));
  let target = Option.get (Bess.Session.read_ref s ~data_addr:(Bess.Session.obj_data s objs.(0))) in
  Alcotest.(check bool) "reference survives relocation" true (target = objs.(19));
  Bess.Session.commit s;
  (* Fresh session reads from the new location. *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let o0 = Option.get (Bess.Session.root s2 "o0") in
  let t19 = Option.get (Bess.Session.read_ref s2 ~data_addr:(Bess.Session.obj_data s2 o0)) in
  Alcotest.(check int) "fresh session reads relocated data" (19 * 11) (payload s2 t19);
  Bess.Session.commit s2

let test_compaction () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = rec_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:2 ~data_pages:4 () in
  let objs = Array.init 100 (fun i ->
      let o = Bess.Session.create_object s seg ty ~size:24 in
      set_payload s o i;
      o)
  in
  (* Delete every other object, leaving holes. *)
  Array.iteri (fun i o -> if i mod 2 = 0 then Bess.Session.delete_object s o) objs;
  Bess.Session.commit s;
  let reclaimed = Bess.Reorg.compact_data_segment s seg in
  Alcotest.(check bool) "compaction reclaimed space" true (reclaimed > 0);
  (* Survivors keep identity and payload. *)
  Bess.Session.begin_txn s;
  Array.iteri
    (fun i o -> if i mod 2 = 1 then Alcotest.(check int) "payload survives compaction" i (payload s o))
    objs;
  Bess.Session.commit s;
  (* A fresh session agrees (the compaction committed). *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let oid = Bess.Session.oid_of s objs.(1) in
  let o1 = Bess.Session.by_oid s2 oid in
  Alcotest.(check int) "fresh session post-compaction" 1 (payload s2 o1);
  Bess.Session.commit s2

let test_resize () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = rec_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let o = Bess.Session.create_object s seg ty ~size:24 in
  set_payload s o 4321;
  (* Fill the 1-page data segment to capacity (80-byte objects exhaust
     the data space well before the slot array). *)
  let filled = ref 1 in
  (try
     while true do
       ignore (Bess.Session.create_object s seg ty ~size:80);
       incr filled
     done
   with Bess.Session.Segment_full _ -> ());
  Bess.Session.commit s;
  (* Grow it; the object (and all references to its slot) survive. *)
  Bess.Reorg.resize_data_segment s seg ~new_pages:4;
  Bess.Session.begin_txn s;
  Alcotest.(check int) "payload after resize" 4321 (payload s o);
  (* And now there is room again. *)
  let o2 = Bess.Session.create_object s seg ty ~size:24 in
  set_payload s o2 1;
  Bess.Session.commit s;
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let oid = Bess.Session.oid_of s o in
  Alcotest.(check int) "fresh session after resize" 4321 (payload s2 (Bess.Session.by_oid s2 oid));
  Bess.Session.commit s2

(* A type of [size] bytes without references. *)
let plain_type db ~name ~size =
  Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name ~size ~ref_offsets:[||]

let check_vlarge db s addr data label =
  let lob = Bess.Vlarge.open_ db s addr in
  Alcotest.(check int) (label ^ ": size") (Bytes.length data) (Lob.size lob);
  Alcotest.(check bytes) (label ^ ": bytes") data (Lob.read lob ~pos:0 ~len:(Bytes.length data))

let vlarge_data = Bytes.init 5_000 (fun i -> Char.chr (i * 7 land 0xff))

(* A very large object's descriptor lives in the data segment; a resize
   rebases its DP with every other one. It used to keep pointing into
   the released range, and [open_] raised [Corruption]. *)
let test_resize_keeps_vlarge () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let addr, lob = Bess.Vlarge.create db s seg in
  Lob.append lob vlarge_data;
  Bess.Vlarge.save db s addr lob;
  Bess.Session.commit s;
  Bess.Reorg.resize_data_segment s seg ~new_pages:3;
  Bess.Session.begin_txn s;
  check_vlarge db s addr vlarge_data "after resize";
  Bess.Session.commit s;
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  check_vlarge db s2 (Bess.Session.by_oid s2 (Bess.Session.oid_of s addr)) vlarge_data
    "fresh session after resize";
  Bess.Session.commit s2

(* Compaction keeps a very large object's descriptor live. It used to
   count the descriptor as reclaimed, the next allocations overwrote it,
   and [open_] raised [Invalid_argument]. *)
let test_compaction_keeps_vlarge () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = rec_type db and small = plain_type db ~name:"small16" ~size:16 in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let addr, lob = Bess.Vlarge.create db s seg in
  Lob.append lob vlarge_data;
  Bess.Vlarge.save db s addr lob;
  let hole = Bess.Session.create_object s seg ty ~size:24 in
  Bess.Session.delete_object s hole;
  Bess.Session.commit s;
  Alcotest.(check int) "only the deleted object is reclaimed" 24
    (Bess.Reorg.compact_data_segment s seg);
  Bess.Session.begin_txn s;
  for i = 1 to 2 do
    let o = Bess.Session.create_object s seg small ~size:16 in
    Vmem.write_bytes (Bess.Session.mem s) (Bess.Session.obj_data s o) (Bytes.make 16 (Char.chr i))
  done;
  check_vlarge db s addr vlarge_data "after compaction and two allocations";
  Bess.Session.commit s;
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  check_vlarge db s2 (Bess.Session.by_oid s2 (Bess.Session.oid_of s addr)) vlarge_data
    "fresh session after compaction";
  Bess.Session.commit s2

(* Compaction keeps a transparent large object's descriptor, which
   lives in the data segment at the offset its slot records. *)
let test_compaction_keeps_large_descriptor () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = rec_type db and small = plain_type db ~name:"small16" ~size:16 in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let hole = Bess.Session.create_object s seg ty ~size:24 in
  let big = Bess.Session.create_large_object s seg ~size:5_000 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s big + 4_096) 77;
  let o = Bess.Session.create_object s seg ty ~size:24 in
  set_payload s o 5;
  Bess.Session.delete_object s hole;
  Bess.Session.commit s;
  Alcotest.(check int) "only the deleted object is reclaimed" 24
    (Bess.Reorg.compact_data_segment s seg);
  Bess.Session.begin_txn s;
  for i = 1 to 2 do
    let o = Bess.Session.create_object s seg small ~size:16 in
    Vmem.write_bytes (Bess.Session.mem s) (Bess.Session.obj_data s o) (Bytes.make 16 (Char.chr i))
  done;
  Bess.Session.commit s;
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let big2 = Bess.Session.by_oid s2 (Bess.Session.oid_of s big) in
  Alcotest.(check int) "fresh session reads the large object" 77
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 big2 + 4_096));
  Alcotest.(check int) "and the moved object" 5
    (payload s2 (Bess.Session.by_oid s2 (Bess.Session.oid_of s o)));
  Bess.Session.commit s2

(* Compaction leaves the space above the new high-water mark zeroed. It
   used to leave the moved objects' old bytes there, and a new object
   with a reference field over them made the before-image read a stale
   payload as a pointer ("0x1e240 is not a slot address"). *)
let test_compaction_zeroes_free_space () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty = rec_type db and blob = plain_type db ~name:"blob24" ~size:24 in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let hole = Bess.Session.create_object s seg ty ~size:24 in
  let b = Bess.Session.create_object s seg blob ~size:24 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s b) 123456;
  Bess.Session.delete_object s hole;
  Bess.Session.commit s;
  Alcotest.(check int) "reclaimed" 24 (Bess.Reorg.compact_data_segment s seg);
  Bess.Session.begin_txn s;
  let o = Bess.Session.create_object s seg ty ~size:24 in
  Alcotest.(check bool) "new object's reference is null" true
    (Bess.Session.read_ref s ~data_addr:(Bess.Session.obj_data s o) = None);
  Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s o) (Some b);
  Bess.Session.commit s;
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let o2 = Bess.Session.by_oid s2 (Bess.Session.oid_of s o) in
  let b2 = Option.get (Bess.Session.read_ref s2 ~data_addr:(Bess.Session.obj_data s2 o2)) in
  Alcotest.(check int) "moved payload" 123456
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 b2));
  Bess.Session.commit s2

let test_move_file () =
  let db = fresh_db ~n_areas:2 () in
  let s = Bess.Db.session db in
  let ty = rec_type db in
  Bess.Session.begin_txn s;
  let f = Bess.Bess_file.create s ~name:"mv" ~data_pages:1 () in
  for i = 1 to 120 do
    set_payload s (Bess.Bess_file.new_object f ty ~size:24) i
  done;
  Bess.Session.commit s;
  let target_area = List.nth (Bess.Db.area_ids db) 1 in
  Bess.Reorg.move_file s f ~to_area:target_area;
  (* All data segments now live in the target area. *)
  List.iter
    (fun seg_id ->
      let seg = Bess.Session.get_seg s ~db_id:(Bess.Db.db_id db) ~seg_id in
      Alcotest.(check int) "data in target area" target_area
        seg.Bess.Session.data_disk.Bess_storage.Seg_addr.area)
    (Bess.Bess_file.seg_ids f);
  Bess.Session.begin_txn s;
  let sum = Bess.Bess_file.fold f (fun acc o -> acc + payload s o) 0 in
  Alcotest.(check int) "contents survive the move" (120 * 121 / 2) sum;
  Bess.Session.commit s

let suite =
  [
    Alcotest.test_case "file_growth_and_scan" `Quick test_file_growth_and_scan;
    Alcotest.test_case "cursor" `Quick test_cursor;
    Alcotest.test_case "multifile_striping" `Quick test_multifile_striping;
    Alcotest.test_case "relocate_data_segment" `Quick test_relocate_data_segment;
    Alcotest.test_case "compaction" `Quick test_compaction;
    Alcotest.test_case "resize" `Quick test_resize;
    Alcotest.test_case "resize_keeps_vlarge" `Quick test_resize_keeps_vlarge;
    Alcotest.test_case "compaction_keeps_vlarge" `Quick test_compaction_keeps_vlarge;
    Alcotest.test_case "compaction_keeps_large_descriptor" `Quick
      test_compaction_keeps_large_descriptor;
    Alcotest.test_case "compaction_zeroes_free_space" `Quick test_compaction_zeroes_free_space;
    Alcotest.test_case "move_file" `Quick test_move_file;
  ]
