(* Very large objects through the class interface (overflow-segment
   descriptors), transparent large objects, and the hook system. *)

module Vmem = Bess_vmem.Vmem
module Lob = Bess_largeobj.Lob
module Prng = Bess_util.Prng

let fresh_db =
  let n = ref 300 in
  fun () ->
    incr n;
    Bess.Db.create_memory ~db_id:!n ()

let test_transparent_large_object () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  (* A 20KB object: larger than the data segment, transparently mapped
     from its own disk segment. *)
  let obj = Bess.Session.create_large_object s seg ~size:20_000 in
  let data = Bess.Session.obj_data s obj in
  Vmem.write_i64 (Bess.Session.mem s) data 1;
  Vmem.write_i64 (Bess.Session.mem s) (data + 10_000) 2;
  Vmem.write_i64 (Bess.Session.mem s) (data + 19_992) 3;
  Alcotest.(check int) "size" 20_000 (Bess.Session.obj_size s obj);
  Bess.Session.set_root s ~name:"big" obj;
  Bess.Session.commit s;
  (* A fresh session faults the object in page by page. *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let obj2 = Option.get (Bess.Session.root s2 "big") in
  let d2 = Bess.Session.obj_data s2 obj2 in
  Alcotest.(check int) "first page" 1 (Vmem.read_i64 (Bess.Session.mem s2) d2);
  Alcotest.(check int) "middle page" 2 (Vmem.read_i64 (Bess.Session.mem s2) (d2 + 10_000));
  Alcotest.(check int) "last page" 3 (Vmem.read_i64 (Bess.Session.mem s2) (d2 + 19_992));
  Bess.Session.commit s2

let test_large_object_limit () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let refused =
    try ignore (Bess.Session.create_large_object s seg ~size:100_000); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "64KB transparent limit enforced" true refused;
  Bess.Session.commit s

let test_vlarge_lifecycle () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:2 () in
  let addr, lob = Bess.Vlarge.create db s seg in
  (* Build up by successive appends, past the transparent limit. *)
  let data = Prng.bytes (Prng.create 9) 200_000 in
  let pos = ref 0 in
  while !pos < 200_000 do
    Lob.append lob (Bytes.sub data !pos 10_000);
    pos := !pos + 10_000
  done;
  Bess.Vlarge.save db s addr lob;
  Bess.Session.set_root s ~name:"video" addr;
  Bess.Session.commit s;
  (* Reopen through the descriptor and check byte-range ops. *)
  Bess.Session.begin_txn s;
  let addr' = Option.get (Bess.Session.root s "video") in
  let lob2 = Bess.Vlarge.open_ db s addr' in
  Alcotest.(check int) "size" 200_000 (Lob.size lob2);
  Alcotest.(check bytes) "random range" (Bytes.sub data 123_456 500)
    (Lob.read lob2 ~pos:123_456 ~len:500);
  Lob.insert lob2 ~pos:100 (Bytes.of_string "SPLICE");
  Bess.Vlarge.save db s addr' lob2;
  Bess.Session.commit s;
  Bess.Session.begin_txn s;
  let lob3 = Bess.Vlarge.open_ db s addr' in
  Alcotest.(check int) "insert persisted" 200_006 (Lob.size lob3);
  Alcotest.(check string) "spliced bytes" "SPLICE" (Bytes.to_string (Lob.read lob3 ~pos:100 ~len:6));
  Bess.Session.commit s

(* A very large object written by one session opens in another. Its DP
   names the descriptor in the data segment, so it must reach disk
   relative to the data base like any small object's. It used to reach
   disk as 0, and every other session's [open_] raised [Corruption 0]. *)
let test_vlarge_other_session () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let addr, lob = Bess.Vlarge.create db s seg in
  let data = Prng.bytes (Prng.create 21) 70_000 in
  Lob.append lob data;
  Bess.Vlarge.save db s addr lob;
  Bess.Session.set_root s ~name:"v" addr;
  Bess.Session.commit s;
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let lob2 = Bess.Vlarge.open_ db s2 (Option.get (Bess.Session.root s2 "v")) in
  Alcotest.(check int) "size seen by another session" 70_000 (Lob.size lob2);
  Alcotest.(check bytes) "bytes seen by another session" (Bytes.sub data 65_000 300)
    (Lob.read lob2 ~pos:65_000 ~len:300);
  Bess.Session.commit s2

let test_vlarge_destroy_frees_space () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:2 () in
  let area = Bess_storage.Area_set.find (Bess.Db.areas db) (Bess.Db.default_area db) in
  let addr, lob = Bess.Vlarge.create db s seg in
  Lob.append lob (Prng.bytes (Prng.create 3) 100_000);
  Bess.Vlarge.save db s addr lob;
  let free_mid = Bess_storage.Area.free_pages area in
  Bess.Vlarge.destroy db s addr;
  Alcotest.(check bool) "segments reclaimed" true
    (Bess_storage.Area.free_pages area > free_mid);
  Bess.Session.commit s

let test_hooks_fire () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"h" ~size:16
      ~ref_offsets:[||]
  in
  (* The paper's motivating example: count commits without touching
     application or system internals. *)
  let commits = ref 0 in
  let write_faults = ref 0 in
  let slotted_faults = ref 0 in
  Bess.Event.register (Bess.Session.hooks s) ~event:"txn_commit" (fun _ -> incr commits);
  Bess.Event.register (Bess.Session.hooks s) ~event:"write_fault" (fun _ -> incr write_faults);
  Bess.Event.register (Bess.Session.hooks s) ~event:"slotted_fault" (fun _ -> incr slotted_faults);
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let o = Bess.Session.create_object s seg ty ~size:16 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o) 5;
  Bess.Session.commit s;
  Bess.Session.begin_txn s;
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o) 6;
  Bess.Session.commit s;
  Alcotest.(check int) "commit hook counted" 2 !commits;
  Alcotest.(check bool) "write faults observed" true (!write_faults >= 2)

let test_hooks_multiple_and_order () =
  let h = Bess.Event.hooks_create () in
  let log = ref [] in
  Bess.Event.register h ~event:"db_open" (fun _ -> log := "first" :: !log);
  Bess.Event.register h ~event:"db_open" (fun _ -> log := "second" :: !log);
  Bess.Event.fire h (Bess.Event.Db_open { db = 1 });
  Alcotest.(check (list string)) "registration order" [ "second"; "first" ] !log;
  Bess.Event.clear h ~event:"db_open";
  Bess.Event.fire h (Bess.Event.Db_open { db = 1 });
  Alcotest.(check int) "cleared" 2 (List.length !log)

let test_protection_violation_hook () =
  let db = fresh_db () in
  let s = Bess.Db.session db in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"p" ~size:16
      ~ref_offsets:[||]
  in
  let violations = ref 0 in
  Bess.Event.register (Bess.Session.hooks s) ~event:"protection_violation" (fun _ ->
      incr violations);
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let o = Bess.Session.create_object s seg ty ~size:16 in
  (try Vmem.write_i64 (Bess.Session.mem s) o 0 with Bess.Session.Corruption _ -> ());
  Alcotest.(check int) "SIGSEGV-analogue delivered to hook" 1 !violations;
  Bess.Session.commit s

let suite =
  [
    Alcotest.test_case "transparent_large" `Quick test_transparent_large_object;
    Alcotest.test_case "large_limit" `Quick test_large_object_limit;
    Alcotest.test_case "vlarge_lifecycle" `Quick test_vlarge_lifecycle;
    Alcotest.test_case "vlarge_other_session" `Quick test_vlarge_other_session;
    Alcotest.test_case "vlarge_destroy" `Quick test_vlarge_destroy_frees_space;
    Alcotest.test_case "hooks_fire" `Quick test_hooks_fire;
    Alcotest.test_case "hooks_order" `Quick test_hooks_multiple_and_order;
    Alcotest.test_case "protection_violation_hook" `Quick test_protection_violation_hook;
  ]
