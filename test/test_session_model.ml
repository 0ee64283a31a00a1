(* Model-based testing of the session engine: random sequences of object
   operations (small objects and references, transparent and very large
   objects, compaction and resize) run both against BeSS and against a
   plain in-memory model;
   after every commit the two worlds must agree, and a fresh session
   reading from the server must agree too. Aborts must roll the BeSS
   world back to the model's last committed state. After every operation
   the canonical image of each mapped data page, which the session
   builds from its per-segment reference map, must equal the one a full
   slot scan builds. *)

module Vmem = Bess_vmem.Vmem
module Prng = Bess_util.Prng
module Session = Bess.Session
module Layout = Bess.Layout
module Codec = Bess_util.Codec
module Lob = Bess_largeobj.Lob

(* The canonical image of data page [page_idx] of [seg] by scanning every
   slot: each used small object overlapping the page, each reference
   field of its type lying wholly on the page. The reference the
   reference map is checked against. *)
let slot_scan_image s (seg : Session.seg_rt) page_idx =
  let ps = Session.page_size s in
  let lo = page_idx * ps in
  let img = Bytes.copy (Option.get (Vmem.frame_at (Session.mem s) (seg.data_base + lo))) in
  let types = Bess.Catalog.types (Session.binding s seg.db_id).b_catalog in
  for idx = 0 to Session.read_header_u32 s seg ~field:Layout.hdr_n_slots - 1 do
    let flags = Session.read_slot_u32 s seg idx ~field:Layout.slot_flags in
    if flags land Layout.flag_used <> 0
       && flags land (Layout.flag_large lor Layout.flag_vlarge) = 0
    then begin
      let obj_off = Session.read_slot_i64 s seg idx ~field:Layout.slot_dp - seg.data_base in
      let size = Session.read_slot_u32 s seg idx ~field:Layout.slot_objsize in
      let ty = Bess.Type_desc.find types (Session.read_slot_u32 s seg idx ~field:Layout.slot_type) in
      if obj_off < lo + ps && obj_off + size > lo then
        Array.iter
          (fun roff ->
            let abs = obj_off + roff in
            if abs >= lo && abs + 8 <= lo + ps then
              match Layout.ref_decode (Codec.get_i64 img (abs - lo)) with
              | Layout.Swizzled addr ->
                  let tseg, slot = Session.unswizzle_addr s addr in
                  Codec.set_i64 img (abs - lo)
                    (Layout.ref_encode (Unswizzled { seg = tseg.seg_id; slot }))
              | Layout.Null | Layout.Unswizzled _ -> ())
          ty.ref_offsets
    end
  done;
  img

(* The test's own canonical form of a data-page image taken swizzled:
   each word at [refs] holding a swizzled slot address becomes the
   unswizzled (segment, slot) it names. *)
let canonicalise s img refs =
  let img = Bytes.copy img in
  Array.iter
    (fun off ->
      match Layout.ref_decode (Codec.get_i64 img off) with
      | Layout.Swizzled addr ->
          let tseg, slot = Session.unswizzle_addr s addr in
          Codec.set_i64 img off (Layout.ref_encode (Unswizzled { seg = tseg.seg_id; slot }))
      | Layout.Null | Layout.Unswizzled _ -> ())
    refs;
  img

(* The commit oracle: what a commit ships must equal, as a set of
   (page, offset, before, after) ranges, the diff of every write-set
   page's whole canonical before-image against its whole canonical
   current image. Checked inside the fetcher's commit, while the write
   set and the frames still hold the transaction. *)
let check_commit_oracle s (updates : Bess.Server.update list) =
  let key (page : Bess_cache.Page_id.t) off b a =
    (page.area, page.page, off, Bytes.to_string b, Bytes.to_string a)
  in
  let expected =
    Bess_cache.Page_id.Tbl.fold
      (fun _ (we : Session.write_entry) acc ->
        let before =
          if we.we_refs == Session.canonical then we.we_before
          else canonicalise s we.we_before we.we_refs
        in
        let after = Session.unswizzle_page_image s we.we_region we.we_vm in
        List.fold_left
          (fun acc (r : Bess.Diff.range) -> key we.we_page r.offset r.before r.after :: acc)
          acc (Bess.Diff.ranges ~before ~after ()))
      (Session.write_set_table s) []
  in
  let shipped = List.map (fun (u : Bess.Server.update) -> key u.page u.offset u.before u.after) updates in
  if List.sort compare shipped <> List.sort compare expected then
    QCheck.Test.fail_reportf "a commit shipped %d ranges, the full-canonical diff has %d (or they differ)"
      (List.length shipped) (List.length expected)

let check_ref_map s (seg : Session.seg_rt) label =
  let ps = Session.page_size s in
  for page_idx = 0 to seg.data_disk.npages - 1 do
    let vm = seg.data_base + (page_idx * ps) in
    if Vmem.frame_at (Session.mem s) vm <> None then
      if not (Bytes.equal (Session.unswizzle_page_image s (Session.Data seg) vm)
                (slot_scan_image s seg page_idx))
      then QCheck.Test.fail_reportf "after %s: data page %d differs from the slot scan" label page_idx
  done

type op =
  | Create of int (* payload *)
  | Create_far of int * int
      (* segment choice, payload: create in segment 1 or 2, so links give
         one data page references into three segments *)
  | Write of int * int (* victim index, payload *)
  | Link of int * int (* from, to *)
  | Unlink of int
  | Delete of int
  | Commit
  | Abort
  | Resize (* commit, grow the data segment by a page (Reorg), begin *)
  | Compact (* commit, compact the data segment (Reorg), begin *)
  | Large of int * int
      (* victim index, payload: write it into a transparent large object
         (a new one when the victim is 0 mod 4 or none is live), read back *)
  | Vlarge of int * int
      (* victim index, byte: commit, append to a very large object (a new
         one when the victim is 0 mod 3 or none exists), save, commit,
         begin; bulk bytes bypass the log, so it never rides an abort *)
  | Refetch
      (* commit, drop every cached page, begin, and read every data page
         back in: under the on-deref policy its references stay
         unswizzled *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 5 40)
      (frequency
         [
           (4, map (fun p -> Create p) small_nat);
           (2, map2 (fun g p -> Create_far (g, p)) small_nat small_nat);
           (4, map2 (fun v p -> Write (v, p)) small_nat small_nat);
           (3, map2 (fun a b -> Link (a, b)) small_nat small_nat);
           (1, map (fun a -> Unlink a) small_nat);
           (1, map (fun a -> Delete a) small_nat);
           (2, return Commit);
           (1, return Abort);
           (1, return Resize);
           (1, return Compact);
           (2, map2 (fun v p -> Large (v, p)) small_nat small_nat);
           (1, map2 (fun v c -> Vlarge (v, c)) small_nat small_nat);
           (1, return Refetch);
         ]))

(* Where a large object's payload goes: on its second page. *)
let large_size = 6000
let large_off = 4104

(* The model: an array of live objects with payload and link. *)
type mobj = { mutable payload : int; mutable link : int option (* model index *) }

let run_scenario ?(policy = Session.Eager) ops =
  let db = Bess.Db.create_memory ~db_id:800 () in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"m" ~size:16
      ~ref_offsets:[| 0 |]
  in
  (* The session's commits pass through the commit oracle. *)
  let self = ref None in
  let base = Bess.Fetcher.direct ~client_id:7700 (Bess.Db.server db) in
  let fetcher =
    { base with
      Bess.Fetcher.f_commit =
        (fun ~txn updates ->
          Option.iter (fun s -> check_commit_oracle s updates) !self;
          base.f_commit ~txn updates) }
  in
  let s =
    Session.create ~page_size:(Bess.Db.page_size db) ~area_ids:(Bess.Db.area_ids db)
      ~db_id:(Bess.Db.db_id db) ~catalog:(Bess.Db.catalog db) ~fetcher
      ~default_area:(Bess.Db.default_area db) ()
  in
  self := Some s;
  Session.set_swizzle_policy s policy;
  (* committed model state and in-flight model state *)
  let committed : (int, mobj) Hashtbl.t = Hashtbl.create 32 in
  let working : (int, mobj) Hashtbl.t = Hashtbl.create 32 in
  let addrs : (int, int) Hashtbl.t = Hashtbl.create 32 (* model id -> slot addr *) in
  let addrs_committed : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let next_id = ref 0 in
  (* transparent large objects: model id -> payload, and -> slot addr *)
  let larges : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let larges_committed : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let large_addrs : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let large_addrs_committed : (int, int) Hashtbl.t = Hashtbl.create 8 in
  (* very large objects, always committed: model id -> (slot addr, bytes) *)
  let vlarges : (int, int * Buffer.t) Hashtbl.t = Hashtbl.create 8 in
  let restore dst src =
    Hashtbl.reset dst;
    Hashtbl.iter (Hashtbl.replace dst) src
  in
  let snapshot src =
    let dst = Hashtbl.create 32 in
    Hashtbl.iter (fun k (v : mobj) -> Hashtbl.replace dst k { payload = v.payload; link = v.link }) src;
    dst
  in
  let copy_into dst src =
    Hashtbl.reset dst;
    Hashtbl.iter (fun k (v : mobj) -> Hashtbl.replace dst k { payload = v.payload; link = v.link }) src
  in
  let live_ids tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare in
  let pick tbl idx =
    match live_ids tbl with
    | [] -> None
    | ids -> Some (List.nth ids (idx mod List.length ids))
  in
  (* Segment 0 takes [Create] and is the one resized and compacted;
     [Create_far] fills segments 1 and 2. *)
  Bess.Session.begin_txn s;
  let segs =
    Array.init 3 (fun _ -> Bess.Session.create_segment s ~slotted_pages:2 ~data_pages:2 ())
  in
  Bess.Session.commit s;
  let ensure_seg () = segs.(0) in
  (* Every mapped data page of the three segments at the start of the
     open transaction: an abort must restore each byte for byte. *)
  let at_begin = ref [] in
  let ps = Session.page_size s and mem = Session.mem s in
  let snap_frames () =
    at_begin :=
      Array.to_list segs
      |> List.concat_map (fun (seg : Session.seg_rt) ->
             List.init seg.data_disk.npages (fun i -> seg.data_base + (i * ps)))
      |> List.filter (Vmem.is_mapped mem)
      |> List.map (fun vm -> (vm, Bytes.copy (Vmem.frame mem vm)))
  in
  let begin_txn () =
    Bess.Session.begin_txn s;
    snap_frames ()
  in
  begin_txn ();
  let commit () =
    Bess.Session.commit s;
    copy_into committed working;
    restore addrs_committed addrs;
    restore larges_committed larges;
    restore large_addrs_committed large_addrs
  in
  let read_large session addr =
    Vmem.read_i64 (Bess.Session.mem session) (Bess.Session.obj_data session addr + large_off)
  in
  let apply op =
    let create seg p =
      match Bess.Session.create_object s seg ty ~size:16 with
      | addr ->
          let id = !next_id in
          incr next_id;
          Hashtbl.replace working id { payload = p; link = None };
          Hashtbl.replace addrs id addr;
          Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s addr + 8) p
      | exception Bess.Session.Segment_full _ -> () (* model unchanged *)
    in
    match op with
    | Create p -> create (ensure_seg ()) p
    | Create_far (g, p) -> create segs.(1 + (g land 1)) p
    | Write (v, p) -> (
        match pick working v with
        | Some id ->
            (Hashtbl.find working id).payload <- p;
            let addr = Hashtbl.find addrs id in
            Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s addr + 8) p
        | None -> ())
    | Link (a, b) -> (
        match (pick working a, pick working b) with
        | Some ia, Some ib ->
            (Hashtbl.find working ia).link <- Some ib;
            Bess.Session.write_ref s
              ~data_addr:(Bess.Session.obj_data s (Hashtbl.find addrs ia))
              (Some (Hashtbl.find addrs ib))
        | _ -> ())
    | Unlink a -> (
        match pick working a with
        | Some ia ->
            (Hashtbl.find working ia).link <- None;
            Bess.Session.write_ref s
              ~data_addr:(Bess.Session.obj_data s (Hashtbl.find addrs ia))
              None
        | None -> ())
    | Delete a -> (
        match pick working a with
        | Some ia ->
            (* the model must not leave dangling links *)
            Hashtbl.iter
              (fun _ (o : mobj) -> if o.link = Some ia then o.link <- None)
              working;
            Hashtbl.iter
              (fun ic (o : mobj) ->
                if o.link = None then
                  let addr = Hashtbl.find addrs ic in
                  Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s addr) None)
              working;
            Hashtbl.remove working ia;
            Bess.Session.delete_object s (Hashtbl.find addrs ia);
            Hashtbl.remove addrs ia
        | None -> ())
    | Commit ->
        commit ();
        begin_txn ()
    | Resize ->
        commit ();
        let sg = ensure_seg () in
        Bess.Reorg.resize_data_segment s sg ~new_pages:(sg.data_disk.npages + 1);
        begin_txn ()
    | Compact ->
        commit ();
        ignore (Bess.Reorg.compact_data_segment s (ensure_seg ()));
        begin_txn ()
    | Large (v, p) -> (
        let target =
          match pick larges v with
          | Some id when v mod 4 <> 0 -> Some id
          | _ -> (
              match Bess.Session.create_large_object s (ensure_seg ()) ~size:large_size with
              | addr ->
                  let id = !next_id in
                  incr next_id;
                  Hashtbl.replace large_addrs id addr;
                  Some id
              | exception Bess.Session.Segment_full _ -> None)
        in
        match target with
        | Some id ->
            let addr = Hashtbl.find large_addrs id in
            Hashtbl.replace larges id p;
            Vmem.write_i64 (Bess.Session.mem s)
              (Bess.Session.obj_data s addr + large_off) p;
            if read_large s addr <> p then
              QCheck.Test.fail_reportf "large object %d does not read back its payload" id
        | None -> ())
    | Vlarge (v, c) ->
        commit ();
        begin_txn ();
        let target =
          match pick vlarges v with
          | Some id when v mod 3 <> 0 ->
              let addr, _ = Hashtbl.find vlarges id in
              Some (id, addr, Bess.Vlarge.open_ db s addr)
          | _ -> (
              match Bess.Vlarge.create db s (ensure_seg ()) with
              | addr, lob ->
                  let id = !next_id in
                  incr next_id;
                  Hashtbl.replace vlarges id (addr, Buffer.create 64);
                  Some (id, addr, lob)
              | exception Bess.Session.Segment_full _ -> None)
        in
        Option.iter
          (fun (id, addr, lob) ->
            let chunk = Bytes.make (1 + (c * 37 mod 3000)) (Char.chr (c land 0xff)) in
            Lob.append lob chunk;
            Bess.Vlarge.save db s addr lob;
            Buffer.add_bytes (snd (Hashtbl.find vlarges id)) chunk)
          target;
        Bess.Session.commit s;
        begin_txn ()
    | Refetch ->
        commit ();
        Session.drop_all_cached s;
        Bess.Session.begin_txn s;
        Array.iter
          (fun (seg : Session.seg_rt) ->
            for i = 0 to seg.data_disk.npages - 1 do
              ignore (Vmem.read_u8 mem (seg.data_base + (i * ps)))
            done)
          segs;
        snap_frames ()
    | Abort ->
        Bess.Session.abort s;
        List.iter
          (fun (vm, img) ->
            if Vmem.is_mapped (Session.mem s) vm && not (Bytes.equal (Vmem.frame (Session.mem s) vm) img)
            then QCheck.Test.fail_reportf "abort left data page 0x%x different from its image" vm)
          !at_begin;
        copy_into working committed;
        (* roll the address tables back with the model: aborted creations
           vanish, aborted deletions resurrect *)
        restore addrs addrs_committed;
        restore larges larges_committed;
        restore large_addrs large_addrs_committed;
        begin_txn ()
  in
  let label = function
    | Create _ -> "create" | Create_far _ -> "create_far" | Write _ -> "write" | Link _ -> "link" | Unlink _ -> "unlink"
    | Delete _ -> "delete" | Commit -> "commit" | Abort -> "abort" | Resize -> "resize"
    | Compact -> "compact" | Large _ -> "large" | Vlarge _ -> "vlarge" | Refetch -> "refetch"
  in
  List.iter
    (fun op ->
      apply op;
      Array.iter (fun seg -> check_ref_map s seg (label op)) segs)
    ops;
  commit ();
  (* Check 1: the owning session agrees with the model. *)
  Bess.Session.begin_txn s;
  let check_against session label =
    Hashtbl.iter
      (fun id (m : mobj) ->
        let addr =
          match session == s with
          | true -> Hashtbl.find addrs id
          | false -> Bess.Session.by_oid session (Bess.Session.oid_of s (Hashtbl.find addrs id))
        in
        let payload =
          Vmem.read_i64 (Bess.Session.mem session) (Bess.Session.obj_data session addr + 8)
        in
        if payload <> m.payload then
          QCheck.Test.fail_reportf "%s: object %d payload %d, model %d" label id payload m.payload;
        let link =
          Bess.Session.read_ref session ~data_addr:(Bess.Session.obj_data session addr)
        in
        let model_link =
          Option.map
            (fun ib ->
              match session == s with
              | true -> Hashtbl.find addrs ib
              | false -> Bess.Session.by_oid session (Bess.Session.oid_of s (Hashtbl.find addrs ib)))
            m.link
        in
        if link <> model_link then
          QCheck.Test.fail_reportf "%s: object %d link mismatch" label id)
      committed;
    let resolve addr =
      if session == s then addr else Bess.Session.by_oid session (Bess.Session.oid_of s addr)
    in
    Hashtbl.iter
      (fun id p ->
        let got = read_large session (resolve (Hashtbl.find large_addrs id)) in
        if got <> p then
          QCheck.Test.fail_reportf "%s: large object %d payload %d, model %d" label id got p)
      larges_committed;
    Hashtbl.iter
      (fun id (addr, contents) ->
        let lob = Bess.Vlarge.open_ db session (resolve addr) in
        if Lob.read lob ~pos:0 ~len:(Lob.size lob) <> Buffer.to_bytes contents then
          QCheck.Test.fail_reportf "%s: very large object %d differs from the model" label id)
      vlarges
  in
  check_against s "owner";
  Bess.Session.commit s;
  (* Check 2: a fresh session (everything refetched from the server)
     agrees too. *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  check_against s2 "fresh";
  (* Its pages were swizzled at fetch: each canonical image must still
     equal the slot scan. *)
  Hashtbl.iter
    (fun id _ ->
      let addr = Bess.Session.by_oid s2 (Bess.Session.oid_of s (Hashtbl.find addrs id)) in
      check_ref_map s2 (fst (Bess.Session.unswizzle_addr s2 addr)) "fresh fetch")
    committed;
  Bess.Session.commit s2;
  (* snapshot silences unused warnings in reduced scenarios *)
  ignore (snapshot committed);
  true

let prop_session_model =
  QCheck.Test.make ~name:"session agrees with a reference model across commit/abort" ~count:40
    (QCheck.make gen_ops) (fun ops -> run_scenario ops)

(* The same model, commit oracle and byte-for-byte abort check with
   pages swizzled on dereference instead of at fetch. *)
let prop_session_model_on_deref =
  QCheck.Test.make ~name:"commit oracle and abort restore under the on-deref policy" ~count:40
    (QCheck.make gen_ops) (fun ops -> run_scenario ~policy:Session.On_deref ops)

(* Fixed sequences the random ones reach only sometimes: an object
   deleted, resurrected by abort and then linked from (the abort must
   invalidate the reference map built while its slot was free), a
   resize between links, and resizes that recycle a freed data segment
   whose pages the server still caches (a write of zeros into it must
   reach a fresh session, not the previous tenant's cached bytes); a
   large object whose creation is aborted and whose slot a small object
   then takes (deleting it must not touch the old range); and large and
   very large objects across abort, compaction and resize; and one data
   page of segment 0 holding references into segments 1, 2 and 0, in
   that slot order, so that both the swizzle at fetch and the unswizzle
   miss the last target segment on each of them. *)
let test_pinned_sequences () =
  List.iter
    (fun ops -> ignore (run_scenario ops))
    [ [ Create 1; Create 2; Commit; Delete 0; Abort; Link (0, 1) ];
      [ Create 1; Create 2; Link (0, 1); Resize; Link (1, 0); Abort; Link (0, 0) ];
      [ Resize; Create 87; Resize; Resize; Write (8, 0); Resize ];
      [ Large (0, 1); Abort; Create 1; Delete 0; Large (0, 2) ];
      [ Large (0, 5); Vlarge (0, 3); Create 1; Delete 0; Create 2; Abort; Large (1, 6);
        Compact; Vlarge (1, 4); Resize; Large (1, 7); Abort; Vlarge (2, 9) ];
      [ Create 1; Create_far (0, 2); Create_far (1, 3); Create 4; Link (0, 1); Link (3, 2);
        Create 5; Link (4, 3); Commit; Link (1, 0); Abort; Link (2, 4); Compact ];
      [ Create 1; Create 2; Create 3; Link (1, 0); Commit; Write (0, 5); Write (2, 7); Commit ] ];
  (* Under the on-deref policy: a refetched page keeps unswizzled
     references, which a write and an abort must leave unswizzled. *)
  List.iter
    (fun ops -> ignore (run_scenario ~policy:Session.On_deref ops))
    [ [ Create 1; Create 2; Link (1, 0); Commit; Refetch; Write (0, 3); Abort; Link (0, 1) ] ]

let suite =
  [ QCheck_alcotest.to_alcotest prop_session_model;
    QCheck_alcotest.to_alcotest prop_session_model_on_deref;
    Alcotest.test_case "reference map on pinned sequences" `Quick test_pinned_sequences ]
