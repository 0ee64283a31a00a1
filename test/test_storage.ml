(* bess_storage: areas, extents, persistence, striping. *)

module Area = Bess_storage.Area
module Area_set = Bess_storage.Area_set
module Seg_addr = Bess_storage.Seg_addr

let test_page_io_roundtrip () =
  let a = Area.create ~page_size:512 ~extent_order:4 ~id:1 `Memory in
  let page = Option.get (Area.alloc a ~npages:1) in
  let data = Bytes.make 512 'x' in
  Area.write_page a page data;
  Alcotest.(check bytes) "roundtrip" data (Area.read_page a page)

let test_alloc_free_segments () =
  let a = Area.create ~page_size:512 ~extent_order:4 ~id:1 `Memory in
  let s1 = Option.get (Area.alloc a ~npages:4) in
  let s2 = Option.get (Area.alloc a ~npages:2) in
  Alcotest.(check bool) "disjoint" true (abs (s1 - s2) >= 2);
  Alcotest.(check (option int)) "size recorded" (Some 4) (Area.seg_size a ~first_page:s1);
  Area.free a ~first_page:s1;
  Area.free a ~first_page:s2;
  Alcotest.(check int) "all free" (Area.capacity_pages a) (Area.free_pages a)

let test_growth_by_extent () =
  let a = Area.create ~page_size:512 ~extent_order:2 ~id:1 `Memory in
  Alcotest.(check int) "one extent" 1 (Area.n_extents a);
  (* 4 pages per extent; allocating 6 fours forces growth. *)
  let segs = List.init 6 (fun _ -> Area.alloc a ~npages:4) in
  Alcotest.(check bool) "all granted via growth" true (List.for_all Option.is_some segs);
  Alcotest.(check bool) "grew" true (Area.n_extents a >= 6)

let test_file_persistence () =
  let path = Filename.temp_file "bess_area" ".db" in
  let a = Area.create ~page_size:512 ~extent_order:4 ~id:9 (`File path) in
  let s1 = Option.get (Area.alloc a ~npages:2) in
  let data = Bytes.make 512 'z' in
  Area.write_page a s1 data;
  Area.close a;
  let a2 = Area.open_file ~id:9 path in
  Alcotest.(check int) "page size restored" 512 (Area.page_size a2);
  Alcotest.(check bytes) "data survives reopen" data (Area.read_page a2 s1);
  Alcotest.(check (option int)) "allocation state survives" (Some 2)
    (Area.seg_size a2 ~first_page:s1);
  (* New allocations avoid the live segment. *)
  let s2 = Option.get (Area.alloc a2 ~npages:2) in
  Alcotest.(check bool) "no overlap after reopen" true (s2 <> s1);
  Area.close a2;
  Sys.remove path

let test_area_set_striping () =
  (* Multifiles stripe by walking [ids] round-robin (Bess_file.next_area),
     so [ids] must keep registration order and every area must take its
     turn. Register out of id order to tell the two apart. *)
  let set = Area_set.create () in
  List.iter
    (fun id -> Area_set.add set (Area.create ~page_size:512 ~extent_order:4 ~id `Memory))
    [ 2; 0; 1 ];
  let ids = Area_set.ids set in
  Alcotest.(check (list int)) "registration order" [ 2; 0; 1 ] ids;
  let addrs =
    List.init 9 (fun i ->
        let area_id = List.nth ids (i mod List.length ids) in
        Option.get (Area_set.alloc_in set ~area_id ~npages:1))
  in
  let by_area = List.map (fun (a : Seg_addr.t) -> a.area) addrs |> List.sort_uniq compare in
  Alcotest.(check int) "striped across all areas" 3 (List.length by_area);
  let counts =
    List.map (fun id -> List.length (List.filter (fun (a : Seg_addr.t) -> a.area = id) addrs))
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "evenly" [ 3; 3; 3 ] counts

let test_area_set_single_area_binding () =
  let set = Area_set.create () in
  Area_set.add set (Area.create ~page_size:512 ~extent_order:4 ~id:5 `Memory);
  Area_set.add set (Area.create ~page_size:512 ~extent_order:4 ~id:6 `Memory);
  let a = Option.get (Area_set.alloc_in set ~area_id:6 ~npages:1) in
  Alcotest.(check int) "lands in requested area" 6 a.area

let test_seg_addr_codec () =
  let addr = { Seg_addr.area = 12; first_page = 3456; npages = 78 } in
  let b = Bytes.create Seg_addr.encoded_size in
  Seg_addr.encode b 0 addr;
  Alcotest.(check bool) "roundtrip" true (Seg_addr.equal addr (Seg_addr.decode b 0))

let prop_alloc_segments_disjoint =
  QCheck.Test.make ~name:"allocated segments never overlap" ~count:50
    QCheck.(small_list (int_bound 3))
    (fun sizes ->
      let a = Area.create ~page_size:512 ~extent_order:5 ~id:1 `Memory in
      let segs = List.filter_map (fun s -> Area.alloc a ~npages:(s + 1)) sizes in
      let ranges =
        List.map (fun fp -> (fp, fp + Option.get (Area.seg_size a ~first_page:fp))) segs
      in
      List.for_all
        (fun (lo1, hi1) ->
          List.for_all
            (fun (lo2, hi2) -> (lo1, hi1) = (lo2, hi2) || hi1 <= lo2 || hi2 <= lo1)
            ranges)
        ranges)

let suite =
  [
    Alcotest.test_case "page_io_roundtrip" `Quick test_page_io_roundtrip;
    Alcotest.test_case "alloc_free_segments" `Quick test_alloc_free_segments;
    Alcotest.test_case "growth_by_extent" `Quick test_growth_by_extent;
    Alcotest.test_case "file_persistence" `Quick test_file_persistence;
    Alcotest.test_case "area_set_striping" `Quick test_area_set_striping;
    Alcotest.test_case "area_set_binding" `Quick test_area_set_single_area_binding;
    Alcotest.test_case "seg_addr_codec" `Quick test_seg_addr_codec;
    QCheck_alcotest.to_alcotest prop_alloc_segments_disjoint;
  ]
