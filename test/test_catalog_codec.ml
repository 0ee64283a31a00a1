(* Catalog serialization, OID codec, type descriptors, diff algebra,
   layout reference encoding: the persistence plumbing. *)

module Seg_addr = Bess_storage.Seg_addr

let test_oid_codec () =
  let oid = Bess.Oid.make ~host:7 ~db:42 ~seg:123456 ~slot:789 ~uniq:54321 in
  let b = Bytes.create Bess.Oid.encoded_size in
  Bess.Oid.encode b 0 oid;
  Alcotest.(check int) "96 bits = 12 bytes" 12 Bess.Oid.encoded_size;
  Alcotest.(check bool) "roundtrip" true (Bess.Oid.equal oid (Bess.Oid.decode b 0))

let prop_oid_codec =
  QCheck.Test.make ~name:"oid codec roundtrip" ~count:300
    QCheck.(
      quad (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xFFFFFF)
        (pair (int_bound 0xFFFF) (int_bound 0xFFFFFF)))
    (fun (host, db, seg, (slot, uniq)) ->
      let oid = Bess.Oid.make ~host ~db ~seg ~slot ~uniq in
      let b = Bytes.create 12 in
      Bess.Oid.encode b 0 oid;
      Bess.Oid.equal oid (Bess.Oid.decode b 0))

let test_ref_encoding () =
  let open Bess.Layout in
  Alcotest.(check int) "null is zero" 0 (ref_encode Null);
  let u = ref_encode (Unswizzled { seg = 12345; slot = 678 }) in
  Alcotest.(check bool) "unswizzled tagged odd" true (u land 1 = 1);
  (match ref_decode u with
  | Unswizzled { seg; slot } ->
      Alcotest.(check (pair int int)) "fields" (12345, 678) (seg, slot)
  | _ -> Alcotest.fail "decode");
  let s = ref_encode (Swizzled 0x10F0) in
  Alcotest.(check bool) "swizzled is the address" true (s = 0x10F0);
  (* Odd addresses are rejected (the tag bit must be free). *)
  let rejected = try ignore (ref_encode (Swizzled 0x10F1)); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "odd address rejected" true rejected

let prop_ref_encoding =
  QCheck.Test.make ~name:"reference encode/decode roundtrip" ~count:300
    QCheck.(pair (int_bound 100000) (int_bound 0xFFFF))
    (fun (seg, slot) ->
      match Bess.Layout.(ref_decode (ref_encode (Unswizzled { seg; slot }))) with
      | Bess.Layout.Unswizzled u -> u.seg = seg && u.slot = slot
      | _ -> false)

let test_type_desc_codec () =
  let ty = Bess.Type_desc.make ~id:5 ~name:"gadget" ~size:128 ~ref_offsets:[| 0; 16; 120 |] in
  let b = Bytes.create (Bess.Type_desc.encoded_size ty) in
  ignore (Bess.Type_desc.encode b 0 ty);
  let ty', _ = Bess.Type_desc.decode b 0 in
  Alcotest.(check bool) "roundtrip" true (ty = ty')

let test_type_desc_validation () =
  let bad = try ignore (Bess.Type_desc.make ~id:1 ~name:"x" ~size:16 ~ref_offsets:[| 12 |]); false
            with Invalid_argument _ -> true in
  Alcotest.(check bool) "ref past end rejected" true bad

let test_catalog_roundtrip () =
  let cat = Bess.Catalog.create ~db_id:9 ~host:3 in
  Bess.Catalog.add_segment cat ~seg_id:1 { Seg_addr.area = 900; first_page = 2; npages = 4 };
  Bess.Catalog.add_segment cat ~seg_id:2 { Seg_addr.area = 901; first_page = 10; npages = 8 };
  let f = Bess.Catalog.create_file cat ~name:"orders" ~area_id:(Some 900) in
  Bess.Catalog.file_add_segment cat f 1;
  Bess.Catalog.file_add_segment cat f 2;
  let mf = Bess.Catalog.create_file cat ~name:"media" ~area_id:None in
  ignore mf;
  Bess.Catalog.set_root cat ~name:"head" (Bess.Oid.make ~host:3 ~db:9 ~seg:1 ~slot:0 ~uniq:7);
  ignore (Bess.Type_desc.register (Bess.Catalog.types cat) ~name:"t1" ~size:64 ~ref_offsets:[| 0; 8 |]);
  let blob = Bess.Catalog.encode cat in
  let cat' = Bess.Catalog.decode blob in
  Alcotest.(check int) "db id" 9 (Bess.Catalog.db_id cat');
  Alcotest.(check int) "host" 3 (Bess.Catalog.host cat');
  Alcotest.(check int) "segments" 2 (Bess.Catalog.n_segments cat');
  Alcotest.(check bool) "segment addr" true
    (Seg_addr.equal (Bess.Catalog.find_segment cat' 2)
       { Seg_addr.area = 901; first_page = 10; npages = 8 });
  let f' = Option.get (Bess.Catalog.find_file_by_name cat' "orders") in
  Alcotest.(check (list int)) "file segments" [ 1; 2 ] f'.seg_ids;
  Alcotest.(check (option int)) "file area" (Some 900) f'.area_id;
  let mf' = Option.get (Bess.Catalog.find_file_by_name cat' "media") in
  Alcotest.(check (option int)) "multifile has no area" None mf'.area_id;
  (match Bess.Catalog.find_root cat' "head" with
  | Some oid -> Alcotest.(check int) "root uniq survives" 7 oid.uniq
  | None -> Alcotest.fail "root lost");
  (match Bess.Type_desc.find_by_name (Bess.Catalog.types cat') "t1" with
  | Some ty -> Alcotest.(check int) "type size survives" 64 ty.size
  | None -> Alcotest.fail "type lost");
  (* Fresh ids continue past the decoded state. *)
  Alcotest.(check bool) "next seg id advances" true (Bess.Catalog.fresh_seg_id cat' > 2)

let test_root_replacement () =
  let cat = Bess.Catalog.create ~db_id:1 ~host:1 in
  let o1 = Bess.Oid.make ~host:1 ~db:1 ~seg:1 ~slot:0 ~uniq:0 in
  let o2 = Bess.Oid.make ~host:1 ~db:1 ~seg:1 ~slot:1 ~uniq:0 in
  Bess.Catalog.set_root cat ~name:"x" o1;
  Bess.Catalog.set_root cat ~name:"x" o2;
  Alcotest.(check bool) "name rebinds" true (Bess.Catalog.find_root cat "x" = Some o2);
  (* The old object no longer claims the name. *)
  Alcotest.(check (option string)) "old oid unnamed" None (Bess.Catalog.root_name cat o1);
  Alcotest.(check (option string)) "new oid named" (Some "x") (Bess.Catalog.root_name cat o2)

let test_diff_roundtrip () =
  let before = Bytes.of_string "aaaaaaaaaabbbbbbbbbbcccccccccc" in
  let after = Bytes.of_string "aaaaaaaaaaBBBBBbbbbbccccccccXc" in
  let rs = Bess.Diff.ranges ~before ~after () in
  Alcotest.(check bool) "some ranges" true (rs <> []);
  Alcotest.(check bytes) "apply reconstructs" after (Bess.Diff.apply before rs);
  Alcotest.(check bool) "identical yields nothing" true
    (Bess.Diff.ranges ~before ~after:before () = [])

let prop_diff_reconstructs =
  QCheck.Test.make ~name:"diff ranges reconstruct the after image" ~count:200
    QCheck.(pair (list (int_bound 255)) (small_list (pair small_nat (int_bound 255))))
    (fun (base, edits) ->
      let before = Bytes.of_string (String.init (List.length base) (fun i -> Char.chr (List.nth base i))) in
      let after = Bytes.copy before in
      List.iter
        (fun (pos, v) ->
          if Bytes.length after > 0 then Bytes.set after (pos mod Bytes.length after) (Char.chr v))
        edits;
      let rs = Bess.Diff.ranges ~before ~after () in
      Bytes.equal (Bess.Diff.apply before rs) after)

let prop_diff_gap_coalescing =
  QCheck.Test.make ~name:"coalesced diffs still reconstruct" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let before = Bytes.make 256 'x' in
      let after = Bytes.copy before in
      Bytes.set after (a mod 256) 'A';
      Bytes.set after (b mod 256) 'B';
      let rs = Bess.Diff.ranges ~gap:64 ~before ~after () in
      Bytes.equal (Bess.Diff.apply before rs) after && List.length rs <= 2)

(* The bytewise scan [Diff.ranges] used before it skipped equal words;
   the reference its output must match byte for byte. *)
let bytewise_ranges ~gap ~before ~after =
  let n = Bytes.length before in
  let out = ref [] in
  let emit lo hi =
    out :=
      { Bess.Diff.offset = lo; before = Bytes.sub before lo (hi - lo);
        after = Bytes.sub after lo (hi - lo) }
      :: !out
  in
  let run_start = ref (-1) and last_diff = ref (-1) in
  for i = 0 to n - 1 do
    if Bytes.get before i <> Bytes.get after i then begin
      if !run_start < 0 then run_start := i
      else if i - !last_diff > gap then begin
        emit !run_start (!last_diff + 1);
        run_start := i
      end;
      last_diff := i
    end
  done;
  if !run_start >= 0 then emit !run_start (!last_diff + 1);
  List.rev !out

(* Images of any length (unaligned tails included) with changed runs
   placed a random distance after each other, often within a few bytes
   of [gap], so runs both merge and split at the threshold. *)
let prop_diff_wordwise =
  QCheck.Test.make ~name:"diff ranges equal the bytewise scan" ~count:500
    QCheck.(
      triple (int_range 0 300) (int_range 0 40)
        (small_list (pair (int_range 0 48) (int_range 1 12))))
    (fun (n, gap, runs) ->
      let before = Bytes.init n (fun i -> Char.chr ((i * 131) land 0xff)) in
      let after = Bytes.copy before in
      let pos = ref 0 in
      List.iter
        (fun (dist, len) ->
          pos := !pos + dist;
          for i = !pos to Stdlib.min n (!pos + len) - 1 do
            Bytes.set after i (Char.chr (Char.code (Bytes.get before i) lxor 0x5a))
          done;
          pos := !pos + len)
        runs;
      Bess.Diff.ranges ~gap ~before ~after () = bytewise_ranges ~gap ~before ~after)

let suite =
  [
    Alcotest.test_case "oid_codec" `Quick test_oid_codec;
    QCheck_alcotest.to_alcotest prop_oid_codec;
    Alcotest.test_case "ref_encoding" `Quick test_ref_encoding;
    QCheck_alcotest.to_alcotest prop_ref_encoding;
    Alcotest.test_case "type_desc_codec" `Quick test_type_desc_codec;
    Alcotest.test_case "type_desc_validation" `Quick test_type_desc_validation;
    Alcotest.test_case "catalog_roundtrip" `Quick test_catalog_roundtrip;
    Alcotest.test_case "root_replacement" `Quick test_root_replacement;
    Alcotest.test_case "diff_roundtrip" `Quick test_diff_roundtrip;
    QCheck_alcotest.to_alcotest prop_diff_reconstructs;
    QCheck_alcotest.to_alcotest prop_diff_gap_coalescing;
    QCheck_alcotest.to_alcotest prop_diff_wordwise;
  ]
