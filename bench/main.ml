(* The experiment harness.

   The ICDE'95 paper has no quantitative evaluation section (its figures
   are architecture diagrams), so this harness reproduces every
   *performance claim* the prose makes, plus the mechanics of all four
   figures, as experiments E1-E10 / F1-F4 / ablations A1-A3 -- the map
   lives in DESIGN.md section 3 and results are recorded in
   EXPERIMENTS.md.

   Run everything:            dune exec bench/main.exe
   Run a subset:              dune exec bench/main.exe -- e1 e4 f4 *)

module Vmem = Bess_vmem.Vmem
module Prng = Bess_util.Prng
module Stats = Bess_util.Stats
module Page_id = Bess_cache.Page_id
module Fault = Bess_fault.Fault
module Driver = Bess_sched.Driver
module Planes = Bess_sched.Planes
module Torture = Bess_sched.Torture
module Json = Bess_obs.Json

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let scale n = if quick then Stdlib.max 1 (n / 10) else n

(* --fault-seed: the base seed of every fault profile an experiment
   arms (E12 sweeps seeds derived from it; E13, E14 and E17 use it as
   is). *)
let fault_seed = ref 1

(* ---- E1: pointer dereference cost --------------------------------------- *)

(* Claim (sections 2.1, 5): swizzled VM-pointer dereference beats OID
   lookup ("pointer dereference in EOS is somewhat slow because
   inter-object references are OIDs"); global_ref (OID + uniquifier
   check) is "somewhat slower" than plain refs. *)
let e1 () =
  let n = scale 20_000 in
  let hops = scale 200_000 in
  let db = Workloads.fresh_db () in
  let s, nodes = Workloads.build_ring db ~n ~per_seg:500 ~stride:7 in
  Bess.Session.begin_txn s;
  (* Warm every segment so we measure dereference, not I/O. *)
  ignore (Workloads.traverse_ring s ~start:nodes.(0) ~hops:n);
  (* One ref<T> hop: read the field out of the object, land on the target
     slot, read its DP -- pure (simulated) memory accesses. *)
  let bess_ns =
    Report.time_per_op ~runs:5 ~iters:hops
      (let cur = ref (Bess.Session.data_ptr s nodes.(0)) in
       fun () ->
         match Bess.Session.deref_data_fast s ~data_addr:!cur with
         | Some next -> cur := next
         | None -> failwith "ring")
  in
  (* global_ref: OID resolution with uniquifier validation per access. *)
  let oids = Array.map (Bess.Session.oid_of s) nodes in
  let global_ns =
    Report.time_per_op ~runs:5 ~iters:(hops / 4)
      (let i = ref 0 in
       fun () ->
         ignore (Bess.Session.by_oid s oids.(!i mod n));
         incr i)
  in
  Bess.Session.commit s;
  (* The EOS-like baseline pays the same simulated-memory tax: objects
     and the OID hash table live in an identical Vmem; one hop reads the
     OID field then probes the table. *)
  let store, objs = Workloads.build_oid_vm_ring ~n in
  store.Workloads.Oid_vm.accesses <- 0;
  let derefs = ref 0 in
  let oid_ns =
    Report.time_per_op ~runs:5 ~iters:hops
      (let cur = ref (snd objs.(0)) in
       fun () ->
         incr derefs;
         cur := Workloads.Oid_vm.deref store ~data_addr:!cur)
  in
  let oid_accesses =
    float_of_int store.Workloads.Oid_vm.accesses /. float_of_int !derefs
  in
  Report.table ~id:"E1"
    ~caption:
      "dereference cost over identical simulated memory (claim: swizzled VM \
       pointers beat OID table lookups; global_ref slower than ref)"
    ~header:[ "mechanism"; "ns/deref"; "vs BeSS ref"; "sim mem reads/deref" ]
    [
      [ "BeSS ref<T> (swizzled)"; Report.ns bess_ns; Report.ratio 1.0; "2.0" ];
      [ "EOS-like OID hash lookup"; Report.ns oid_ns; Report.ratio (oid_ns /. bess_ns);
        Printf.sprintf "%.2f" oid_accesses ];
      [ "BeSS global_ref<T> (OID+uniq)"; Report.ns global_ns; Report.ratio (global_ns /. bess_ns);
        "2.0 + registry hash" ];
    ];
  Report.note "both sides pay identical per-access simulation costs; the deterministic \
access count is the substrate-independent comparison";
  Report.gate (oid_accesses > 2.0)
    "e1: the OID baseline measures %.2f simulated reads per dereference (want > 2; BeSS's \
     2.0 is the ref<T> path's constant, not measured, so this checks the baseline only): "
    oid_accesses

(* ---- E2: operation modes ------------------------------------------------- *)

(* Claim (section 4.1): "In-place access offers the potential for high
   performance, especially for short transactions, since it avoids
   interprocess communication and the cost of copying data to a private
   space and back to the cache." *)
let e2 () =
  let n_pages = 64 in
  let txns = scale 2_000 in
  let rows = ref [] and gates = ref [] in
  List.iter
    (fun pages_per_txn ->
      let run mode =
        let db = Workloads.fresh_db () in
        (* Seed pages. *)
        let s = Bess.Db.session db in
        Bess.Session.begin_txn s;
        (* Page-level workload: the data pages themselves are the
           objects; no slot population needed. *)
        let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:n_pages () in
        Bess.Session.commit s;
        let node =
          Bess.Node_server.create ~cache_slots:(n_pages * 2)
            ~n_procs:(match mode with `Shm -> 1 | `Coa -> 0)
            (Bess.Fetcher.direct ~client_id:9999 (Bess.Db.server db))
        in
        let data_page i =
          { Page_id.area = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.area;
            page = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.first_page + i }
        in
        let prng = Prng.create 42 in
        (* Time the *access path* only (the claim of section 4.1 is about
           avoiding IPC and copying on access); each transaction still
           commits, untimed, to release locks and ship dirty pages. The
           same blocks read the simulated clock, which the node server's
           IPC advances. *)
        let access_ns = ref 0.0 and sim_ns = ref 0 in
        let timed f =
          let t0 = Unix.gettimeofday () and s0 = Bess_obs.Span.now_ns () in
          f ();
          access_ns := !access_ns +. ((Unix.gettimeofday () -. t0) *. 1e9);
          sim_ns := !sim_ns + (Bess_obs.Span.now_ns () - s0)
        in
        (match mode with
        | `Shm ->
            let p = (Bess.Node_server.procs node).(0) in
            for _ = 1 to txns do
              timed (fun () ->
                  for _ = 1 to pages_per_txn do
                    let pg = data_page (Prng.int prng n_pages) in
                    let addr, _ = Bess.Node_server.shm_access node ~proc:0 pg ~write:true in
                    let v = Vmem.read_i64 p.Bess.Node_server.pvma (addr + 16) in
                    Vmem.write_i64 p.Bess.Node_server.pvma (addr + 16) (v + 1)
                  done);
              Bess.Node_server.commit node
            done
        | `Coa ->
            (* Private pool: pages cached across transactions; dirty
               pages ship back at commit (that copy IS part of the
               access-path cost of this mode). *)
            let private_pool : (Page_id.t, Bytes.t) Hashtbl.t = Hashtbl.create 64 in
            for _ = 1 to txns do
              let dirty = ref [] in
              timed (fun () ->
                  for _ = 1 to pages_per_txn do
                    let pg = data_page (Prng.int prng n_pages) in
                    let bytes =
                      match Hashtbl.find_opt private_pool pg with
                      | Some b -> b
                      | None ->
                          let b = Bess.Node_server.coa_fetch node pg ~write:true in
                          Hashtbl.replace private_pool pg b;
                          b
                    in
                    let v = Bess_util.Codec.get_i64 bytes 16 in
                    Bess_util.Codec.set_i64 bytes 16 (v + 1);
                    if not (List.mem pg !dirty) then dirty := pg :: !dirty
                  done;
                  List.iter
                    (fun pg ->
                      Bess.Node_server.coa_write_back node pg (Hashtbl.find private_pool pg))
                    !dirty);
              Bess.Node_server.commit node
            done);
        let st = Bess.Node_server.stats node in
        ( !access_ns /. float_of_int txns,
          float_of_int !sim_ns /. float_of_int txns,
          float_of_int (Stats.get st "node.ipc_messages") /. float_of_int txns,
          float_of_int (Stats.get st "node.ipc_bytes") /. float_of_int txns )
      in
      let shm_real, shm_sim, shm_msgs, _ = run `Shm in
      let coa_real, coa_sim, coa_msgs, coa_bytes = run `Coa in
      gates := (pages_per_txn, shm_msgs, coa_msgs, shm_sim, coa_sim) :: !gates;
      rows :=
        [
          string_of_int pages_per_txn;
          Report.ns (shm_real +. shm_sim);
          Report.ns (coa_real +. coa_sim);
          Report.ratio ((coa_real +. coa_sim) /. (shm_real +. shm_sim));
          Printf.sprintf "%.1f" shm_msgs;
          Printf.sprintf "%.1f" coa_msgs;
          Report.bytes (int_of_float coa_bytes);
        ]
        :: !rows)
    [ 1; 2; 4; 8; 16; 32 ];
  Report.table ~id:"E2"
    ~caption:
      "operation modes: cost per transaction vs pages touched (claim: shared \
       memory wins, most at short transactions)"
    ~header:
      [ "pages/txn"; "shm/txn"; "copy/txn"; "copy/shm"; "shm ipc"; "coa ipc"; "coa bytes/txn" ]
    (List.rev !rows);
  Report.note "costs include simulated IPC time (15us/msg + 1ns/B) plus real compute";
  List.iter
    (fun (pages, shm_msgs, coa_msgs, shm_sim, coa_sim) ->
      Report.gate
        (shm_msgs = 0.0 && coa_msgs > 0.0 && coa_sim > shm_sim)
        "e2: %d pages/txn: %.1f shm ipc (want 0), %.1f coa ipc (want > 0), simulated %.0f ns \
         coa vs %.0f ns shm per txn (want coa above): "
        pages shm_msgs coa_msgs coa_sim shm_sim)
    (List.rev !gates)

(* ---- E3: lazy vs greedy address reservation ------------------------------ *)

(* Claim (section 2.1): "Memory address space is reserved in a less
   greedy fashion than the schemes presented in [19,30,34]. In BeSS,
   virtual address space for data segments is reserved only when the
   corresponding slotted segments are actually accessed." *)
let e3 () =
  let n_segs = scale 400 in
  let per_seg = 64 in
  let n = n_segs * per_seg in
  let rows = ref [] and lazy_ok = ref true in
  List.iter
    (fun pct ->
      let db = Workloads.fresh_db () in
      let s, nodes = Workloads.build_ring db ~n ~per_seg ~stride:1 in
      ignore s;
      (* A fresh session traverses pct% of the ring. *)
      let s2 = Bess.Db.session ~pool_slots:8192 db in
      Bess.Session.begin_txn s2;
      let head = Option.get (Bess.Session.root s2 "ring_head") in
      let hops = n * pct / 100 in
      if hops > 0 then ignore (Workloads.traverse_ring s2 ~start:head ~hops);
      Bess.Session.commit s2;
      let bess_reserved = Vmem.reserved_peak_bytes (Bess.Session.mem s2) in
      let bess_calls = Stats.get (Vmem.stats (Bess.Session.mem s2)) "vmem.reserve_calls" in
      (* The greedy baseline reserves everything at open. *)
      let shapes =
        List.map
          (fun seg_id ->
            let sa = Bess.Catalog.find_segment (Bess.Db.catalog db) seg_id in
            let data_pages =
              let seg = Bess.Session.get_seg s2 ~db_id:(Bess.Db.db_id db) ~seg_id in
              if seg.Bess.Session.data_disk.npages > 0 then seg.Bess.Session.data_disk.npages
              else 8
            in
            (seg_id,
             { Bess_baseline.Greedy_reserve.slotted_pages = sa.npages; data_pages }))
          (Bess.Catalog.segment_ids (Bess.Db.catalog db))
      in
      let greedy = Bess_baseline.Greedy_reserve.open_database shapes in
      let greedy_reserved = Bess_baseline.Greedy_reserve.reserved_peak_bytes greedy in
      let greedy_calls = Bess_baseline.Greedy_reserve.reserve_calls greedy in
      ignore nodes;
      if (if pct < 100 then bess_reserved >= greedy_reserved else bess_reserved <> greedy_reserved)
      then lazy_ok := false;
      rows :=
        [
          Printf.sprintf "%d%%" pct;
          Report.bytes bess_reserved;
          Report.bytes greedy_reserved;
          Report.ratio (float_of_int greedy_reserved /. float_of_int (Stdlib.max 1 bess_reserved));
          Report.count bess_calls;
          Report.count greedy_calls;
        ]
        :: !rows)
    [ 1; 5; 10; 25; 50; 100 ];
  Report.table ~id:"E3"
    ~caption:
      "address-space reservation vs fraction of database touched (claim: BeSS \
       reserves lazily; greedy schemes reserve everything)"
    ~header:
      [ "touched"; "BeSS reserved"; "greedy reserved"; "greedy/BeSS"; "BeSS mmaps"; "greedy mmaps" ]
    (List.rev !rows);
  Report.gate !lazy_ok
    "e3: BeSS reserves less than greedy below 100%% touched and the same at 100%%: "

(* ---- E4: cache replacement ----------------------------------------------- *)

(* Section 4.2: the frame-state clock must approximate classic clock hit
   ratios without per-access reference bits, paying instead with
   protection changes; the two-level clock extends it to shared slots. *)
let e4 () =
  let n_pages = 512 in
  let cache_slots = 128 in
  let length = scale 200_000 in
  let page_size = 256 in
  let rows = ref [] and differ = ref [] in
  List.iter
    (fun kind ->
      let stream = Workloads.reference_stream (Prng.create 7) ~kind ~n_pages ~length in
      (* (a) classic clock with per-access reference bits. *)
      let classic () =
        let c = Bess_cache.Cache.create ~nslots:cache_slots ~page_size in
        let clock = Bess_cache.Clock.create c in
        Array.iter
          (fun p ->
            let slot = Bess_cache.Cache.load c (Page_id.make ~area:0 ~page:p) ~fill:ignore in
            Bess_cache.Clock.note_access clock slot.Bess_cache.Cache.index;
            Bess_cache.Cache.unpin c slot)
          stream;
        Bess_cache.Cache.hit_ratio c
      in
      (* (b) frame-state clock: no reference bits; a page revoked by the
         sweep pays one protection fault + mprotect on re-touch. *)
      let state_clock () =
        let c = Bess_cache.Cache.create ~nslots:cache_slots ~page_size in
        let protects = ref 0 in
        let sc =
          Bess_cache.State_clock.create ~n_vframes:cache_slots
            ~protect:(fun _ -> incr protects)
            ~invalidate:(fun _ -> ())
        in
        Bess_cache.Cache.set_victim_chooser c (fun () ->
            match
              Bess_cache.State_clock.sweep_victim sc ~can_evict:(fun slot ->
                  (Bess_cache.Cache.slot c slot).Bess_cache.Cache.pins = 0)
            with
            | Some (_, slot) -> Some slot
            | None -> None);
        (* Residency is peeked; the one [load] counts the access. *)
        Array.iter
          (fun p ->
            let page = Page_id.make ~area:0 ~page:p in
            let resident = Bess_cache.Cache.find_slot c page <> None in
            let slot = Bess_cache.Cache.load c page ~fill:ignore in
            let vframe = slot.Bess_cache.Cache.index in
            (if not resident then Bess_cache.State_clock.map sc ~vframe ~slot:vframe
             else if Bess_cache.State_clock.state sc vframe = Bess_cache.State_clock.Protected
             then begin
               incr protects;
               Bess_cache.State_clock.access sc ~vframe
             end);
            Bess_cache.Cache.unpin c slot)
          stream;
        (Bess_cache.Cache.hit_ratio c, !protects)
      in
      let classic_hr = classic () in
      let state_hr, protects = state_clock () in
      if classic_hr <> state_hr then differ := Workloads.stream_name kind :: !differ;
      rows :=
        [
          Workloads.stream_name kind;
          Report.percent classic_hr;
          Report.percent state_hr;
          Report.count protects;
          Report.fixed (float_of_int protects /. float_of_int length);
        ]
        :: !rows)
    [ Workloads.Zipf 1.2; Workloads.Zipf 0.8; Workloads.Zipf 0.5; Workloads.Uniform; Workloads.Scan_loop ];
  Report.table ~id:"E4"
    ~caption:
      "replacement policies, 512 pages / 128 slots (claim: the frame-state \
       clock matches clock hit ratios without per-access bookkeeping)"
    ~header:[ "workload"; "clock hit%"; "state-clock hit%"; "mprotects"; "mprotect/access" ]
    (List.rev !rows);
  Report.gate (!differ = [])
    ~fail:("FAILED (" ^ String.concat ", " (List.rev !differ) ^ ")")
    "e4: the frame-state clock's hit ratio equals the clock's on every stream: "

(* ---- E5: large-object byte-range operations ------------------------------ *)

(* Section 2.1 / [3,4]: the variable-size segment tree supports insert /
   append / delete at arbitrary positions; a flat layout must rewrite the
   tail on every structural edit. *)
let e5 () =
  let ops = scale 50 in
  let rows = ref [] and pages = ref [] in
  List.iter
    (fun size_kb ->
      let size = size_kb * 1024 in
      let area () = Bess_storage.Area.create ~page_size:4096 ~extent_order:9 ~id:1 `Memory in
      let payload = Bytes.make 4096 'p' in
      let run_tree op =
        let a = area () in
        let lob = Bess_largeobj.Lob.create a in
        Bess_largeobj.Lob.append lob (Prng.bytes (Prng.create 1) size);
        let st = Bess_largeobj.Lob.stats lob in
        let pages () = Stats.get st "lob.pages_read" + Stats.get st "lob.pages_written" in
        let pages0 = pages () in
        let prng = Prng.create 2 in
        let t =
          Report.time_per_op ~iters:ops (fun () ->
              (* keep the object near its nominal size so deletes always
                 have room to cut *)
              if Bess_largeobj.Lob.size lob < size / 2 then
                Bess_largeobj.Lob.append lob (Prng.bytes prng (size / 2));
              match op with
              | `Append -> Bess_largeobj.Lob.append lob payload
              | `Insert ->
                  Bess_largeobj.Lob.insert lob
                    ~pos:(Prng.int prng (Bess_largeobj.Lob.size lob))
                    payload
              | `Delete ->
                  let n = Bess_largeobj.Lob.size lob in
                  Bess_largeobj.Lob.delete lob ~pos:(Prng.int prng (n - 4096)) ~len:4096
              | `Read ->
                  ignore
                    (Bess_largeobj.Lob.read lob
                       ~pos:(Prng.int prng (Bess_largeobj.Lob.size lob - 4096))
                       ~len:4096))
        in
        (t, (pages () - pages0) / ops)
      in
      let run_flat op =
        let a = area () in
        let blob = Bess_baseline.Flat_blob.create a in
        Bess_baseline.Flat_blob.write_all blob (Prng.bytes (Prng.create 1) size);
        let st = Bess_baseline.Flat_blob.stats blob in
        let pages () = Stats.get st "flat.pages_read" + Stats.get st "flat.pages_written" in
        let pages0 = pages () in
        let prng = Prng.create 2 in
        let t =
          Report.time_per_op ~iters:ops (fun () ->
              if Bess_baseline.Flat_blob.size blob < size / 2 then
                Bess_baseline.Flat_blob.append blob (Prng.bytes prng (size / 2));
              match op with
              | `Append -> Bess_baseline.Flat_blob.append blob payload
              | `Insert ->
                  Bess_baseline.Flat_blob.insert blob
                    ~pos:(Prng.int prng (Bess_baseline.Flat_blob.size blob))
                    payload
              | `Delete ->
                  let n = Bess_baseline.Flat_blob.size blob in
                  Bess_baseline.Flat_blob.delete blob ~pos:(Prng.int prng (n - 4096)) ~len:4096
              | `Read ->
                  ignore
                    (Bess_baseline.Flat_blob.read blob
                       ~pos:(Prng.int prng (Bess_baseline.Flat_blob.size blob - 4096))
                       ~len:4096))
        in
        (t, (pages () - pages0) / ops)
      in
      List.iter
        (fun (opname, op) ->
          let t_tree, io_tree = run_tree op in
          let t_flat, io_flat = run_flat op in
          pages := ((size_kb, opname), (io_tree, io_flat)) :: !pages;
          rows :=
            [
              Printf.sprintf "%dKB" size_kb;
              opname;
              Report.ns t_tree;
              Report.ns t_flat;
              Report.count io_tree;
              Report.count io_flat;
              Report.ratio (t_flat /. t_tree);
            ]
            :: !rows)
        [ ("append 4K", `Append); ("insert 4K", `Insert); ("delete 4K", `Delete);
          ("read 4K", `Read) ])
    [ 64; 256; 1024 ];
  Report.table ~id:"E5"
    ~caption:
      "large objects: segment tree [3,4] vs flat layout (claim: byte-range \
       edits stay cheap as the object grows)"
    ~header:[ "size"; "op"; "tree/op"; "flat/op"; "tree pages/op"; "flat pages/op"; "flat/tree" ]
    (List.rev !rows);
  Report.note
    "the flat layout also hits the contiguous-allocation ceiling (one 2MB extent) that the tree never needs";
  let at size_kb opname = List.assoc (size_kb, opname) !pages in
  Report.gate
    (List.for_all
       (fun opname -> fst (at 1024 opname) <= 2 * fst (at 64 opname))
       [ "append 4K"; "insert 4K"; "delete 4K"; "read 4K" ])
    "e5: tree pages/op at 1MB stay within 2x of those at 64KB, for every op: ";
  let tree_1024, flat_1024 = at 1024 "append 4K" and flat_64 = snd (at 64 "append 4K") in
  Report.gate (flat_1024 >= 10 * tree_1024 && flat_1024 > flat_64)
    "e5: flat append rewrites the object: %d pages/op at 1MB, >= 10x the tree's %d and above \
     its own %d at 64KB: "
    flat_1024 tree_1024 flat_64;
  let counters = Bess_obs.Registry.counters (Bess_obs.Registry.snapshot ()) in
  let written name = Option.value ~default:0 (List.assoc_opt name counters) > 0 in
  Report.gate
    (written "lob.pages_written" && written "flat.pages_written")
    "e5: the registry snapshot counts both layouts' page writes: "

(* ---- E6: on-the-fly reorganisation --------------------------------------- *)

(* Claim (sections 2.1, 5): data segments relocate without touching any
   reference (slot indirection); with physical OIDs "object relocation
   ... is a tedious task" -- every reference must be found and fixed. *)
let e6 () =
  let rows = ref [] in
  let ring_ok = ref true in
  List.iter
    (fun n ->
      let per_seg = 64 in
      (* BeSS: relocate one data segment under live references. *)
      let db = Workloads.fresh_db ~n_areas:2 () in
      let s, nodes = Workloads.build_ring db ~n ~per_seg ~stride:1 in
      let oid0 = Bess.Session.oid_of s nodes.(0) in
      (* The sum of the payloads around the ring, traversed by [s]. *)
      let checksum s =
        Bess.Session.begin_txn s;
        let sum = Workloads.traverse_ring s ~start:(Bess.Session.by_oid s oid0) ~hops:n in
        Bess.Session.commit s;
        sum
      in
      let before = checksum s in
      let seg0, _ = Bess.Session.seg_of_slot s nodes.(0) in
      let other_area = List.nth (Bess.Db.area_ids db) 1 in
      let t_bess =
        Report.time_ns ~runs:1 (fun () ->
            Bess.Reorg.relocate_data_segment s seg0 ~to_area:other_area)
      in
      (* A fresh session reads every page from the server, the relocated
         segment from its new area. *)
      if checksum (Bess.Db.session db) <> before then ring_ok := false;
      let bess_refs_fixed = 0 (* by construction: references point at slots *) in
      (* Physical-OID baseline: relocating segment 0 rewrites every
         reference into it, found by scanning the whole database. *)
      let store, _pnodes = Workloads.build_physical_ring ~n ~per_seg in
      let fixed = ref 0 in
      let t_phys =
        Report.time_ns ~runs:1 (fun () ->
            fixed := Bess_baseline.Physical_oid.relocate_segment store ~seg:0 ~new_seg:100_000)
      in
      let scanned =
        Stats.get (Bess_baseline.Physical_oid.stats store) "phys.refs_scanned"
      in
      rows :=
        [
          Report.count n;
          Report.ns t_bess;
          string_of_int bess_refs_fixed;
          Report.ns t_phys;
          Report.count scanned;
          Report.count !fixed;
        ]
        :: !rows)
    [ scale 5_000; scale 20_000; scale 80_000 ];
  Report.table ~id:"E6"
    ~caption:
      "relocating one data segment under live references (claim: BeSS fixes \
       zero references; physical OIDs scan everything)"
    ~header:
      [ "objects"; "BeSS time"; "BeSS refs fixed"; "physOID time"; "refs scanned"; "refs fixed" ]
    (List.rev !rows);
  Report.gate !ring_ok
    "e6: a fresh session's ring checksum after relocation equals the one before, at every size: "

(* ---- E7: update detection / protection overhead -------------------------- *)

(* Sections 2.2-2.3: hardware detection costs protection system calls;
   the software alternative costs an announcement call per update, turns
   conservative at function boundaries, and silently corrupts when a call
   is forgotten. *)
let e7 () =
  let txns = scale 500 in
  let rows = ref [] and read_only = ref (0, 0) in
  List.iter
    (fun (reads, writes) ->
      (* BeSS: count protection syscalls and faults over real sessions. *)
      let db = Workloads.fresh_db () in
      let s, nodes = Workloads.build_ring db ~n:2_000 ~per_seg:250 ~stride:1 in
      let vm_stats = Vmem.stats (Bess.Session.mem s) in
      let protects () = Stats.get vm_stats "vmem.protect_calls" in
      let faults () =
        Stats.get vm_stats "vmem.faults.read" + Stats.get vm_stats "vmem.faults.write"
      in
      (* Warm up. *)
      Bess.Session.begin_txn s;
      ignore (Workloads.traverse_ring s ~start:nodes.(0) ~hops:2_000);
      Bess.Session.commit s;
      let protects0 = protects () and faults0 = faults () in
      let prng = Prng.create 3 in
      for _ = 1 to txns do
        Bess.Session.begin_txn s;
        for _ = 1 to reads do
          let o = nodes.(Prng.int prng 2_000) in
          ignore (Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8))
        done;
        for _ = 1 to writes do
          let o = nodes.(Prng.int prng 2_000) in
          Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) 1
        done;
        Bess.Session.commit s
      done;
      let protects = protects () - protects0 and faults = faults () - faults0 in
      (* Software approach: one announcement per write; conservative mode
         announces on reads too (the compiler can't tell). *)
      let soft = Bess_baseline.Soft_dirty.create ~n_pages:64 () in
      let prng = Prng.create 3 in
      for _ = 1 to txns do
        for _ = 1 to reads do
          ignore (Bess_baseline.Soft_dirty.read soft ~page:(Prng.int prng 64) ~off:0)
        done;
        for _ = 1 to writes do
          Bess_baseline.Soft_dirty.write soft ~page:(Prng.int prng 64) ~off:0 ~announced:true 1
        done;
        Bess_baseline.Soft_dirty.clean soft
      done;
      let calls = Stats.get (Bess_baseline.Soft_dirty.stats soft) "soft.mark_calls" in
      let conservative = Bess_baseline.Soft_dirty.create ~n_pages:64 () in
      Bess_baseline.Soft_dirty.set_conservative conservative true;
      let prng = Prng.create 3 in
      for _ = 1 to txns do
        for _ = 1 to reads + writes do
          ignore (Bess_baseline.Soft_dirty.read conservative ~page:(Prng.int prng 64) ~off:0)
        done;
        Bess_baseline.Soft_dirty.clean conservative
      done;
      let cons_locks =
        Stats.get (Bess_baseline.Soft_dirty.stats conservative) "soft.lock_requests"
      in
      (* A 1% forgetful programmer: undetected lost updates. *)
      let sloppy = Bess_baseline.Soft_dirty.create ~n_pages:64 () in
      let prng = Prng.create 3 in
      for _ = 1 to txns do
        for _ = 1 to writes do
          Bess_baseline.Soft_dirty.write sloppy ~page:(Prng.int prng 64) ~off:0
            ~announced:(Prng.int prng 100 > 0)
            1
        done;
        Bess_baseline.Soft_dirty.clean sloppy
      done;
      let missed = Stats.get (Bess_baseline.Soft_dirty.stats sloppy) "soft.missed_updates" in
      if writes = 0 then read_only := (protects, faults);
      rows :=
        [
          Printf.sprintf "%dr/%dw" reads writes;
          Printf.sprintf "%.2f" (float_of_int protects /. float_of_int txns);
          Printf.sprintf "%.2f" (float_of_int faults /. float_of_int txns);
          Printf.sprintf "%.1f" (float_of_int calls /. float_of_int txns);
          Printf.sprintf "%.1f" (float_of_int cons_locks /. float_of_int txns);
          Report.count missed;
        ]
        :: !rows)
    [ (20, 0); (20, 5); (5, 20); (0, 20) ];
  Report.table ~id:"E7"
    ~caption:
      "update detection per transaction: hardware (BeSS) vs software \
       announcements (claims of sections 2.2-2.3)"
    ~header:
      [ "mix"; "syscalls/txn"; "faults/txn"; "sw calls/txn"; "conservative locks/txn";
        "missed (1% sloppy)" ]
    (List.rev !rows);
  Report.note "hardware detection costs are per *page per txn*; software costs per *update*";
  Report.note "missed updates are silent corruption the hardware scheme makes impossible";
  let protects, faults = !read_only in
  Report.gate (protects = 0 && faults = 0)
    "e7: %d read-only transactions (20r/0w) cost %d protection syscalls and %d faults (want 0): "
    txns protects faults

(* ---- E8: callback locking ------------------------------------------------ *)

(* Claim (section 3): "client-server interaction is minimized by caching
   data and locks between transactions ... callback locking ... has been
   shown to have good performance over a wide range of workloads." *)
let e8 () =
  let n_clients = 4 in
  let txns_per_client = scale 200 in
  let n = 2_000 in
  let rows = ref [] and fetches_ok = ref true and read_only_cbs = ref (0.0, 0.0) in
  List.iter
    (fun (label, write_pct, shared) ->
      let run ~cached =
        let db = Workloads.fresh_db () in
        let s0, _nodes = Workloads.build_ring db ~n ~per_seg:250 ~stride:1 in
        (* The builder's cache would otherwise absorb the first callback
           of every page; measure steady state instead. *)
        Bess.Session.drop_all_cached s0;
        let server = Bess.Db.server db in
        let st = Bess.Server.stats server in
        let fetches0 = Stats.get st "server.segment_fetches"
        and callbacks0 = Stats.get st "server.callbacks_sent" in
        let sessions = Array.init n_clients (fun _ -> Bess.Db.session db) in
        let prngs = Array.init n_clients (fun i -> Prng.create (100 + i)) in
        (* HOTCOLD-style: each client has a private hot region; [shared]
           of its accesses go to the common shared region instead. *)
        let region_size = n / (n_clients + 1) in
        let pick i =
          let prng = prngs.(i) in
          if Prng.int prng 100 < shared then n_clients * region_size + Prng.int prng region_size
          else (i * region_size) + Prng.int prng region_size
        in
        for _ = 1 to txns_per_client do
          Array.iteri
            (fun i s ->
              let rec attempt retries =
                try
                  Bess.Session.begin_txn s;
                  let head = Option.get (Bess.Session.root s "ring_head") in
                  ignore head;
                  for _ = 1 to 8 do
                    let idx = pick i in
                    let oid =
                      Bess.Oid.make
                        ~host:(Bess.Catalog.host (Bess.Db.catalog db))
                        ~db:(Bess.Db.db_id db)
                        ~seg:((idx / 250) + 1)
                        ~slot:(idx mod 250) ~uniq:0
                    in
                    let o = Bess.Session.by_oid s oid in
                    if Prng.int prngs.(i) 100 < write_pct then
                      Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) idx
                    else ignore (Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8))
                  done;
                  Bess.Session.commit s;
                  if not cached then
                    (* no-intertxn-caching baseline: drop everything *)
                    Bess.Session.drop_all_cached s
                with
                | Bess.Fetcher.Would_block | Bess.Fetcher.Deadlock_abort ->
                    if Bess.Session.in_txn s then Bess.Session.abort s;
                    if retries < 10 then attempt (retries + 1)
              in
              attempt 0)
            sessions
        done;
        let total_txns = float_of_int (n_clients * txns_per_client) in
        ( float_of_int (Stats.get st "server.segment_fetches" - fetches0) /. total_txns,
          float_of_int (Stats.get st "server.callbacks_sent" - callbacks0) /. total_txns )
      in
      let cached_fetches, cached_cbs = run ~cached:true in
      let fresh_fetches, fresh_cbs = run ~cached:false in
      if cached_fetches >= fresh_fetches then fetches_ok := false;
      if write_pct = 0 then read_only_cbs := (cached_cbs, fresh_cbs);
      rows :=
        [
          label;
          Printf.sprintf "%.2f" cached_fetches;
          Printf.sprintf "%.2f" fresh_fetches;
          Report.ratio (fresh_fetches /. Stdlib.max 0.01 cached_fetches);
          Printf.sprintf "%.3f" cached_cbs;
          Printf.sprintf "%.3f" fresh_cbs;
        ]
        :: !rows)
    [
      ("private (0% shared, 20% wr)", 20, 0);
      ("mostly-private (20% shared)", 20, 20);
      ("half shared (50% shared)", 20, 50);
      ("all shared, read-only", 0, 100);
      ("all shared, 20% writes", 20, 100);
    ];
  Report.table ~id:"E8"
    ~caption:
      "callback locking, 4 clients (claim: inter-transaction caching slashes \
       server fetches; callbacks stay rare except under write sharing)"
    ~header:
      [ "workload"; "fetch/txn cached"; "fetch/txn no-cache"; "saving"; "cb/txn cached";
        "cb/txn no-cache" ]
    (List.rev !rows);
  Report.gate !fetches_ok "e8: cached fetches/txn below uncached on every workload: ";
  let cached_cbs, fresh_cbs = !read_only_cbs in
  Report.gate (cached_cbs = 0.0 && fresh_cbs = 0.0)
    "e8: all shared, read-only: %.3f callbacks/txn cached, %.3f uncached (want 0): " cached_cbs
    fresh_cbs

(* ---- E9: buddy allocation ------------------------------------------------ *)

let e9 () =
  let churn = scale 50_000 in
  let rows = ref [] in
  List.iter
    (fun (label, max_size) ->
      let b = Bess_buddy.Buddy.create ~order:14 in
      let prng = Prng.create 11 in
      let live = ref [] in
      let n_live = ref 0 in
      let failures = ref 0 in
      let t =
        Report.time_per_op ~iters:churn (fun () ->
            if (!n_live > 0 && Prng.bool prng) || !n_live > 300 then begin
              match !live with
              | off :: rest ->
                  Bess_buddy.Buddy.free b off;
                  live := rest;
                  decr n_live
              | [] -> ()
            end
            else
              let size = 1 + Prng.int prng max_size in
              match Bess_buddy.Buddy.alloc b size with
              | Some off ->
                  live := off :: !live;
                  incr n_live
              | None -> incr failures)
      in
      let st = Bess_buddy.Buddy.stats b in
      rows :=
        [
          label;
          Report.ns t;
          Report.count (Stats.get st "buddy.allocs");
          Report.count (Stats.get st "buddy.coalesces");
          Report.fixed (Bess_buddy.Buddy.fragmentation b);
          Report.count !failures;
        ]
        :: !rows)
    [ ("uniform 1-8 pages", 8); ("uniform 1-64 pages", 64); ("uniform 1-256 pages", 256) ];
  Report.table ~id:"E9"
    ~caption:"binary buddy allocator under random churn (16K-page arena)"
    ~header:[ "size mix"; "ns/op"; "allocs"; "coalesces"; "frag"; "failures" ]
    (List.rev !rows)

(* ---- E10: recovery and 2PC ----------------------------------------------- *)

(* The number of Update records in a log and the pages they name, in
   page order. *)
let logged_updates log =
  let n, pages =
    Bess_wal.Log.fold log
      (fun (n, acc) _ (r : Bess_wal.Log_record.t) ->
        match r.body with
        | Update { page; _ } -> (n + 1, page :: acc)
        | _ -> (n, acc))
      (0, [])
  in
  (n, List.sort_uniq Bess_cache.Page_id.compare pages)

let pages_crc server pages =
  List.fold_left
    (fun crc p ->
      let b = Bess.Server.read_page server p in
      Bess_util.Crc32.update crc b 0 (Bytes.length b))
    0l pages

let e10 () =
  let rows = ref [] in
  let restarts_ok = ref true and second_ok = ref true in
  List.iter
    (fun n_txns ->
      let db = Workloads.fresh_db ~cache_slots:4096 () in
      let server = Bess.Db.server db in
      let s = Bess.Db.session db in
      let ty = Workloads.node_type db in
      Bess.Session.begin_txn s;
      let seg = Bess.Session.create_segment s ~slotted_pages:4 ~data_pages:32 () in
      let objs = Array.init 200 (fun _ -> Bess.Session.create_object s seg ty ~size:32) in
      Bess.Session.commit s;
      let prng = Prng.create 5 in
      for _ = 1 to n_txns do
        Bess.Session.begin_txn s;
        for _ = 1 to 4 do
          let o = objs.(Prng.int prng 200) in
          Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) (Prng.next_int prng)
        done;
        Bess.Session.commit s
      done;
      let log = Bess.Store.log (Bess.Server.store server) in
      let log_bytes = Bess_wal.Log.size_bytes log in
      (* The 4096-slot cache never wrote a page back, so restart repeats
         every update logged since the database was created. *)
      let updates, pages = logged_updates log in
      let crc = pages_crc server pages in
      Bess.Server.crash server;
      let redone = ref 0 in
      let t =
        Report.time_ns ~runs:1 (fun () ->
            let outcome = Bess.Server.recover server in
            redone := outcome.redone)
      in
      if !redone <> updates || not (Int32.equal crc (pages_crc server pages)) then
        restarts_ok := false;
      (* Crash and restart again with no new work, from a log that now
         ends in the first restart's records. *)
      Bess.Server.crash server;
      if (Bess.Server.recover server).redone <> !redone
         || not (Int32.equal crc (pages_crc server pages))
      then second_ok := false;
      rows :=
        [ Report.count n_txns; Report.bytes log_bytes; Report.count !redone; Report.ns t ]
        :: !rows)
    [ scale 500; scale 2_000; scale 8_000 ];
  Report.table ~id:"E10a"
    ~caption:"restart recovery time vs log length (ARIES repeats history)"
    ~header:[ "committed txns"; "log size"; "updates redone"; "recovery time" ]
    (List.rev !rows);
  Report.gate !restarts_ok
    "e10: every restart redoes all logged updates and restores the pre-crash page images: ";
  Report.gate !second_ok
    "e10: a second restart with no new work redoes as many updates and leaves the same page \
     images: ";
  (* 2PC vs local commit, measured in wire messages over the simulated
     network. *)
  let rows = ref [] and twopc_ok = ref true in
  List.iter
    (fun n_dbs ->
      let net = Bess.Remote.network () in
      let dbs = List.init n_dbs (fun i -> Workloads.fresh_db () |> fun db -> (i, db)) in
      List.iter (fun (_, db) -> Bess.Remote.serve net (Bess.Db.server db)) dbs;
      let _, main_db = List.hd dbs in
      let s =
        Bess.Remote.session net ~client_id:5001 main_db
      in
      List.iter
        (fun (_, db) ->
          if Bess.Db.db_id db <> Bess.Db.db_id main_db then
            Bess.Remote.attach net ~client_id:5001 s db)
        dbs;
      (* One transaction creating an object in every database. *)
      Bess.Session.begin_txn s;
      List.iter
        (fun (_, db) ->
          let ty = Workloads.node_type db in
          let seg =
            Bess.Session.create_segment s ~db_id:(Bess.Db.db_id db) ~slotted_pages:1
              ~data_pages:1 ()
          in
          let o = Bess.Session.create_object s seg ty ~size:32 in
          Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) 1)
        dbs;
      let before = Bess_net.Net.messages net in
      Bess.Session.commit s;
      let commit_msgs = Bess_net.Net.messages net - before in
      if commit_msgs <> 2 + (4 * (n_dbs - 1)) then twopc_ok := false;
      rows := [ string_of_int n_dbs; string_of_int commit_msgs ] :: !rows)
    [ 1; 2; 3; 4 ];
  Report.table ~id:"E10b"
    ~caption:"distributed commit: wire messages at commit vs participating servers (2PC)"
    ~header:[ "servers"; "commit messages" ]
    (List.rev !rows);
  Report.gate !twopc_ok "e10b: 2 + 4(n-1) commit messages for n servers, n = 1..4: "

(* ---- E11: group commit ---------------------------------------------------- *)

(* Tentpole claim: a force scheduler amortises the modeled log force
   (the dominant fixed cost of commit) across concurrently committing
   clients. 16 closed-loop clients run on the discrete-event scheduler
   (think, lock a private page, commit through the split-ack barrier);
   under [Group_n n] registrations arriving inside one ack-poll window
   share a coalesced force, so forces/txn falls below 1 while the
   per-commit wait (registration to durability) grows with the batch.
   The batch size saturates at the number of committers that register
   within the ack delay, not at n — the closed loop self-limits. *)
let e11 () =
  let n_clients = 16 in
  let txns = scale 100 in
  let rows = ref [] and per_txn = ref [] in
  List.iter
    (fun policy ->
      (* Policy is an explicit argument: nothing leaks to the next run. *)
      let db = Workloads.fresh_db ~cache_slots:4096 ~group_commit:policy () in
      let server = Bess.Db.server db in
      (* Working set well above the population keeps lock conflicts rare:
         this experiment isolates force amortisation, not contention. *)
      let pages = Driver.seed_working_set db ~n_pages:(8 * n_clients) in
      let wal = Bess_wal.Log.stats (Bess.Store.log (Bess.Server.store server)) in
      let hist name =
        match Stats.find_histogram wal name with
        | Some h -> (Bess_util.Histogram.count h, Bess_util.Histogram.sum h)
        | None -> (0, 0)
      in
      let forces0 = Stats.get wal "log.forces" in
      let pf_c0, pf_s0 = hist "wal.group.commits_per_force" in
      let wt_c0, wt_s0 = hist "wal.force_wait_ns" in
      let cfg =
        { Driver.default with
          n_clients;
          txns_per_client = txns;
          think_ns = 200_000;
          ack_delay_ns = 100_000;
          seed = 11;
        }
      in
      let r = Driver.run server ~pages cfg in
      let forces = Stats.get wal "log.forces" - forces0 in
      let mean (c0, s0) (c1, s1) =
        if c1 > c0 then float_of_int (s1 - s0) /. float_of_int (c1 - c0) else 0.0
      in
      let per_force = mean (pf_c0, pf_s0) (hist "wal.group.commits_per_force") in
      let wait = mean (wt_c0, wt_s0) (hist "wal.force_wait_ns") in
      let committed = Stdlib.max 1 r.Driver.r_commits in
      per_txn := float_of_int forces /. float_of_int committed :: !per_txn;
      rows :=
        [
          Bess_wal.Group_commit.policy_to_string policy;
          Report.count r.Driver.r_commits;
          Report.count forces;
          Report.fixed (float_of_int forces /. float_of_int committed);
          Report.fixed per_force;
          Report.ns wait;
          Report.ns (float_of_int r.Driver.r_sim_ns /. float_of_int committed);
        ]
        :: !rows)
    Bess_wal.Group_commit.[ Immediate; Group_n 4; Group_n 16; Group_n 64 ];
  Report.table ~id:"E11"
    ~caption:
      "group commit: log forces amortised across 16 closed-loop committers on the event \
       scheduler (modeled 100us force)"
    ~header:
      [ "policy"; "txns"; "forces"; "forces/txn"; "commits/force"; "commit wait"; "sim ns/txn" ]
    (List.rev !rows);
  let per_txn = List.rev !per_txn in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> b <= a && non_increasing rest
    | _ -> true
  in
  Report.gate
    (List.hd per_txn = 1.0
    && List.for_all (fun f -> f < 1.0) (List.tl per_txn)
    && non_increasing per_txn)
    "e11: forces/txn %s: 1.000 under immediate, below 1 and non-increasing through group:64: "
    (String.concat " -> " (List.map Report.fixed per_txn))

(* ---- E12: chaos sweep ------------------------------------------------------ *)

(* Robustness tentpole: deterministic fault injection swept over many
   seeds. Four remote clients each write their own 8-byte slot of a
   shared page through the group-commit barrier while a fault profile
   drops, duplicates and delays messages and tears or fails log forces;
   after every run the server crashes and recovers. The table reports,
   per profile, how much went wrong on the wire (fires, retries,
   duplicate replays) and the two numbers that must not move: acked
   commits lost after recovery and locks leaked -- both zero, at every
   seed, or the fault plane is broken. *)
let e12 () =
  let n_clients = 4 in
  let rounds = 6 in
  let seeds = scale 50 in
  let rows = ref [] and verdicts = ref [] in
  List.iter
    (fun profile ->
      let sites = List.assoc profile Fault.profiles in
      let acked_n = ref 0 and maybe_n = ref 0 in
      let violations = ref 0 and leaks = ref 0 in
      let retries = ref 0 and replays = ref 0 and fires = ref 0 in
      for run = 1 to seeds do
        let rig = Torture.create (Workloads.fresh_db ()) ~client_base:3000 ~n_clients in
        (* The plane is disarmed before the crash: the invariant is about
           what the faulty workload left durable, not about faults during
           recovery. *)
        let acks =
          Planes.with_installed ~faults:(!fault_seed + run, sites) (fun () ->
              let acks =
                Torture.commit_rounds rig ~rounds ~value:(fun i round ->
                    (run * 1000) + (i * 100) + round)
              in
              fires := !fires + Stats.get (Fault.stats ()) "fault.fires";
              acks)
        in
        acked_n := !acked_n + acks.Torture.n_acked;
        maybe_n := !maybe_n + acks.Torture.n_maybe;
        leaks := !leaks + Bess_lock.Lock_mgr.n_locks (Bess.Server.locks rig.Torture.server);
        retries := !retries + Stats.get (Bess_net.Net.stats rig.Torture.net) "net.client_retries";
        replays := !replays + Stats.get (Bess.Server.stats rig.Torture.server) "server.dup_replays";
        violations := !violations + List.length (Torture.lost_after_recovery rig acks)
      done;
      verdicts := (profile, !violations, !leaks) :: !verdicts;
      let total = float_of_int (seeds * n_clients * rounds) in
      rows :=
        [
          profile;
          Report.count !acked_n;
          Report.percent (float_of_int !acked_n /. total);
          Report.count !maybe_n;
          Report.count !fires;
          Report.count !retries;
          Report.count !replays;
          Report.count !violations;
          Report.count !leaks;
        ]
        :: !rows)
    [ "off"; "flaky-net"; "flaky-disk"; "chaos" ];
  Report.table ~id:"E12"
    ~caption:
      (Printf.sprintf
         "chaos sweep: %d fault seeds x 4 clients x 6 commit rounds per profile, crash + \
          recovery after each (acked-lost and leaked-locks must be 0)"
         seeds)
    ~header:
      [ "profile"; "acked"; "ack rate"; "indeterminate"; "fault fires"; "retries";
        "dup replays"; "acked lost"; "locks leaked" ]
    (List.rev !rows);
  Report.note "seeds derive from --fault-seed (base %d); identical bases replay identical schedules"
    !fault_seed;
  List.iter
    (fun (profile, lost, leaked) ->
      Report.gate (lost = 0 && leaked = 0) "e12: %s: %d acked commits lost, %d locks leaked: "
        profile lost leaked)
    (List.rev !verdicts)

(* ---- E13: time-series of a commit workload under chaos ------------------- *)

(* Observability tentpole: the windowed sampler watching the same
   4-client commit workload as E12 run under the "chaos" profile — but
   instead of end-of-run totals, the table shows the system's behaviour
   *over simulated time*: per-window commit and force rates next to the
   gauges (active transactions, pending group-commit tickets, dedup-table
   depth) that counters alone cannot express. The full series lands in
   bench_report.json under "e13_series" and in a timestamped
   BENCH_e13.json so successive runs accumulate comparable artifacts. *)
let e13 () =
  let n_clients = 4 in
  let rounds = scale 80 in
  let profile = "chaos" in
  let series = Bess_obs.Series.create ~capacity:4096 ~window_ns:1_000_000 () in
  let rig = Torture.create (Workloads.fresh_db ()) ~client_base:3000 ~n_clients in
  let acks =
    Planes.with_installed ~faults:(!fault_seed, List.assoc profile Fault.profiles) ~series
      (fun () -> Torture.commit_rounds rig ~rounds ~value:(fun i round -> (i * 1000) + round))
  in
  let acked_n = acks.Torture.n_acked in
  let violations = List.length (Torture.lost_after_recovery rig acks) in
  let samples = Bess_obs.Series.to_list series in
  let n_samples = List.length samples in
  (* Up to 10 evenly spaced windows keep the table readable; the JSON
     artifacts carry every window. *)
  let shown =
    if n_samples <= 10 then samples
    else
      List.filteri
        (fun i _ -> i mod (((n_samples + 9) / 10)) = 0 || i = n_samples - 1)
        samples
  in
  let cell v = match v with Some x -> string_of_int x | None -> "-" in
  let rate_cell s name =
    match Bess_obs.Series.sample_rate s name with
    | Some r -> Printf.sprintf "%.0f/s" r
    | None -> "-"
  in
  Report.table ~id:"E13"
    ~caption:
      (Printf.sprintf
         "per-window time-series: %d windows of >=1ms simulated time over %d commit \
          rounds x %d clients under the %S fault profile (seed %d)"
         n_samples rounds n_clients profile !fault_seed)
    ~header:
      [ "window"; "t0"; "width"; "commits"; "commit rate"; "log forces"; "fault fires";
        "txns"; "tickets"; "dedup" ]
    (List.map
       (fun (s : Bess_obs.Series.sample) ->
         [
           string_of_int s.Bess_obs.Series.w_index;
           Report.ns (float_of_int s.Bess_obs.Series.w_start_ns);
           Report.ns
             (float_of_int (s.Bess_obs.Series.w_end_ns - s.Bess_obs.Series.w_start_ns));
           cell (Bess_obs.Series.sample_delta s "server.commits");
           rate_cell s "server.commits";
           cell (Bess_obs.Series.sample_delta s "wal.log.forces");
           cell (Bess_obs.Series.sample_delta s "fault.fires");
           cell (Bess_obs.Series.sample_gauge s "server.active_txns");
           cell (Bess_obs.Series.sample_gauge s "wal.pending_tickets");
           cell (Bess_obs.Series.sample_gauge s "server.dedup_entries");
         ])
       shown);
  let gauge_names =
    match samples with
    | [] -> []
    | s :: _ -> List.map fst s.Bess_obs.Series.w_gauges
  in
  Report.gate (violations = 0) ~pass:"" ~fail:" -- FAILED"
    "%d acked commits, %d violations after crash+recovery; %d gauges sampled per window (%s)"
    acked_n violations (List.length gauge_names)
    (String.concat ", " gauge_names);
  Report.artifact ~id:"e13" ~what:"series" ~section:"e13_series"
    ~fields:
      [ ("fault_seed", Json.int !fault_seed); ("profile", Json.Str profile);
        ("clients", Json.int n_clients); ("rounds", Json.int rounds);
        ("acked", Json.int acked_n); ("violations", Json.int violations) ]
    ("series", Bess_obs.Series.json_of series)

(* ---- The closed-loop fleet point (E14, E15, E18) ----------------------------- *)

(* E14 and E15 sweep the same populations over the same working set, each
   spreading ~[fleet_attempts] transaction attempts over its clients. *)
let fleet_sweep = if quick then [ 100; 1_000 ] else [ 100; 1_000; 10_000; 100_000 ]
let fleet_pages = 2048
let fleet_attempts = scale 40_000

(* Their one client mix: zipf(0.8) over the working set + 5% hot-8, with
   0.2% session churn. *)
let fleet_cfg ~seed n_clients =
  { Driver.default with
    n_clients;
    txns_per_client = Stdlib.max 1 (fleet_attempts / n_clients);
    zipf_theta = 0.8;
    hot_fraction = 0.05;
    hot_pages = 8;
    churn = 0.002;
    seed;
  }

(* A fresh db committing through group:16, with timeout deadlock
   detection (the exact graph detector walks the waits-for graph per
   blocked request) and the seeded working set. *)
let fleet_db ?(cache_slots = 2 * fleet_pages) ?db_id () =
  let db =
    Workloads.fresh_db ~cache_slots ~group_commit:(Bess_wal.Group_commit.Group_n 16) ?db_id ()
  in
  let server = Bess.Db.server db in
  Bess.Server.set_detection server `Timeout;
  (server, Driver.seed_working_set db ~n_pages:fleet_pages)

type point = {
  server : Bess.Server.t;
  sched : Bess_sched.Sched.t;
  r : Driver.result;
  wall : float;  (* real seconds inside [Driver.run] *)
  fires : int;   (* fault fires during the run *)
  fp : string;   (* counter fingerprint, see [drive] *)
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Drive [cfg] against a [fleet_db] on a fresh scheduler, with the given
   planes installed for the run. The scheduler (rebinding the registry's
   sched.* stats to a fresh zeroed instance) exists before any series
   goes in, so the first window's baseline snapshot sees the new
   instance, not the previous point's counts. The fingerprint is the
   printed sched/server/lock/cache stats of the run's own fresh
   substrate instances — bit-identical across same-seed runs if and only
   if the simulation is deterministic. *)
let drive ?faults ?spans ?critpath ?series (server, pages) cfg =
  let sched = Bess_sched.Sched.create () in
  let (r, wall), fires =
    Planes.with_installed ?faults ?spans ?critpath ?series (fun () ->
        let run = timed (fun () -> Driver.run ~sched server ~pages cfg) in
        (run, Stats.get (Fault.stats ()) "fault.fires"))
  in
  let fp =
    Fmt.str "%a|%a|%a|%a" Stats.pp (Bess_sched.Sched.stats sched) Stats.pp
      (Bess.Server.stats server) Stats.pp
      (Bess_lock.Lock_mgr.stats (Bess.Server.locks server))
      Stats.pp
      (Bess_cache.Cache.stats (Bess.Store.cache (Bess.Server.store server)))
  in
  { server; sched; r; wall; fires; fp }

let leaked_locks p = Bess_lock.Lock_mgr.n_locks (Bess.Server.locks p.server)
let flaky_disk () = (!fault_seed, List.assoc "flaky-disk" Fault.profiles)

(* ---- E14: closed-loop client-count sweep ----------------------------------- *)

(* Scale tentpole: throughput and tail commit latency as the simulated
   client population grows 10^2 -> 10^5, driven closed-loop on the
   Bess_sched event heap — every client thinks, X-locks a Zipf-picked
   page (with a hot set), commits through the group-commit barrier and
   waits for its durability ack, with a little session churn mixed in.
   Three artifacts per run: the summary table below, per-window
   throughput/latency series (bench_report.json#e14_series and a
   timestamped BENCH_e14.json), and a same-seed determinism check — the
   run is re-executed at 10^3 clients and the per-substrate counter
   snapshots must match bit for bit. A final 10^3-client run under the
   flaky-disk fault profile checks chaos-under-load invariants (no lock
   leaks, no stuck transactions). *)
let e14 () =
  let seed = 1404 in
  (* One sweep point with its own windowed series. *)
  let run_point ?faults n_clients =
    let series = Bess_obs.Series.create ~capacity:4096 ~window_ns:10_000_000 () in
    let ((server, _) as db) = fleet_db () in
    let loads () =
      Stats.get (Bess_cache.Cache.stats (Bess.Store.cache (Bess.Server.store server))) "cache.loads"
    in
    let loads0 = loads () in
    let p = drive ?faults ~series db (fleet_cfg ~seed n_clients) in
    (* The series' [cache] is the server's: its windows add up to what
       the server cache loaded over the run. *)
    let windowed =
      List.fold_left
        (fun acc w -> acc + Option.value ~default:0 (Bess_obs.Series.sample_delta w "cache.loads"))
        0 (Bess_obs.Series.to_list series)
    in
    let loaded = loads () - loads0 in
    Report.gate (windowed = loaded)
      "e14: %d clients: cache.loads over the windows %d, server cache loads %d: " n_clients
      windowed loaded;
    (p, series)
  in
  let rows = ref [] in
  let series_sections = ref [] in
  let fp_1000 = ref "" in
  List.iter
    (fun n_clients ->
      let p, series = run_point n_clients in
      if n_clients = 1_000 then fp_1000 := p.fp;
      if leaked_locks p <> 0 then
        Report.gate false ~fail:"" "e14: LOCK LEAK at %d clients: %d entries left in the table"
          n_clients (leaked_locks p);
      let open Driver in
      let r = p.r in
      series_sections :=
        (Printf.sprintf "clients_%d" n_clients, Bess_obs.Series.json_of series)
        :: !series_sections;
      rows :=
        [
          Report.count n_clients;
          Report.count r.r_commits;
          Report.count (r.r_aborts + r.r_give_ups);
          Report.count r.r_indeterminate;
          Report.count r.r_disconnects;
          Report.count r.r_events;
          Report.ns (float_of_int r.r_sim_ns);
          Printf.sprintf "%.0f/s" (throughput r);
          Report.ns (float_of_int r.r_commit_p50_ns);
          Report.ns (float_of_int r.r_commit_p99_ns);
          Printf.sprintf "%.0f ms" (p.wall *. 1e3);
        ]
        :: !rows)
    fleet_sweep;
  Report.table ~id:"E14"
    ~caption:
      (Printf.sprintf
         "closed-loop client sweep on the event scheduler: ~%d txn attempts spread over \
          each population, zipf(0.8) over %d pages + 5%% hot-8, group:16, 0.2%% churn"
         fleet_attempts fleet_pages)
    ~header:
      [ "clients"; "commits"; "aborts"; "indet"; "churns"; "events"; "sim time";
        "throughput"; "commit p50"; "commit p99"; "wall" ]
    (List.rev !rows);
  (* Same seed, same config, fresh substrates: the counter snapshots must
     be bit-identical or the scheduler has a nondeterminism bug. *)
  let again, _ = run_point 1_000 in
  let deterministic = String.equal !fp_1000 again.fp in
  Report.gate deterministic ~pass:"OK (counter snapshots identical)"
    ~fail:"FAILED (counter snapshots differ)" "e14: same-seed determinism at 1000 clients: ";
  (* Chaos under load: the fault plane armed while 1000 clients run.
     Outcomes may be lost (indeterminate) but nothing may leak. *)
  let chaos, _ = run_point ~faults:(flaky_disk ()) 1_000 in
  Report.gate (leaked_locks chaos = 0) ~pass:"" ~fail:""
    "e14: chaos under load (flaky-disk, seed %d): %d commits, %d indeterminate, %d fault \
     fires, %d leaked locks"
    !fault_seed chaos.r.Driver.r_commits chaos.r.Driver.r_indeterminate chaos.fires
    (leaked_locks chaos);
  Report.artifact ~id:"e14" ~what:"series" ~section:"e14_series"
    ~fields:
      [ ("seed", Json.int seed); ("clients", Json.Arr (List.map Json.int fleet_sweep));
        ("deterministic", Json.Bool deterministic);
        ("chaos_leaked_locks", Json.int (leaked_locks chaos)) ]
    ("series", Json.Obj (List.rev !series_sections))

(* Tail-latency attribution: the e14 client sweep re-run with span
   tracing and the critical-path sink installed. Every committed
   transaction's latency is decomposed into exhaustive phases (lock
   wait, WAL force, net transit, retry backoff, server work, scheduler
   lag, other) whose sum equals the measured latency exactly; the sweep
   reports the blame breakdown per population, checks conservation,
   re-runs the 10^3 point to prove the decomposition and breach counts
   are same-seed deterministic and once more with no plane installed to
   prove observing moved nothing, and gates the smallest population on a
   commit-p99 latency budget checked in every series window.
   Artifacts: bench_report.json#e15 and a timestamped BENCH_e15.json
   with per-client-count phase fractions. *)
let e15 () =
  let seed = 1505 in
  let budget_ns = 20_000_000 in
  (* The per-window checks, in report order: [Some ok] for a window that
     carries the metric, [None] (skipped) for one that does not — no
     commits means no commit-latency verdict. *)
  let window_checks =
    let zero name s = Option.map (( = ) 0) (Bess_obs.Series.sample_delta s name) in
    [
      ( "commit_p99",
        fun s ->
          Option.map
            (fun tl -> tl.Bess_obs.Series.t_p99 < budget_ns)
            (Bess_obs.Series.sample_tail s "critpath.commit_ns") );
      ("no_unclosed", zero "critpath.unclosed_roots");
      ("no_orphans", zero "critpath.orphan_spans");
    ]
  in
  (* One sweep point, instrumented: a private span collector feeding the
     critical-path sink and a windowed series carrying per-window tails,
     whose every window goes through [window_checks]. *)
  let run_point n_clients =
    let cp = Bess_obs.Critpath.create ~top_k:8 () in
    let series = Bess_obs.Series.create ~capacity:4096 ~window_ns:10_000_000 () in
    let p =
      drive ~spans:(Bess_obs.Span.create ()) ~critpath:cp ~series (fleet_db ())
        (fleet_cfg ~seed n_clients)
    in
    (* A window evicted from the ring would be one the budget never saw. *)
    assert (Bess_obs.Series.dropped series = 0);
    let windows = Bess_obs.Series.to_list series in
    let verdicts = List.map (fun (name, ok) -> (name, List.filter_map ok windows)) window_checks in
    let checks = List.fold_left (fun n (_, oks) -> n + List.length oks) 0 verdicts in
    let report = List.map (fun (name, oks) -> (name, List.length (List.filter not oks))) verdicts in
    (p, cp, checks, report)
  in
  let breaches report = List.fold_left (fun n (_, b) -> n + b) 0 report in
  let phase_names = List.map Bess_obs.Critpath.phase_name Bess_obs.Critpath.phases in
  let rows = ref [] in
  let point_sections = ref [] in
  let fp_1000 = ref "" and breaches_1000 = ref (-1) and point_1000 = ref None in
  let budget_ok = ref true and conserved = ref true in
  List.iter
    (fun n_clients ->
      let p, cp, checks, report = run_point n_clients in
      if n_clients = 1_000 then begin
        fp_1000 := Bess_obs.Critpath.fingerprint cp;
        breaches_1000 := breaches report;
        point_1000 := Some p
      end;
      let total = Bess_obs.Critpath.total_ns cp in
      let totals = Bess_obs.Critpath.blame_totals cp in
      (* Conservation: the per-phase sums must reproduce the measured
         transaction time exactly (the 1% acceptance bound is met with
         zero slack by construction; any gap is a decomposition bug). *)
      let phase_sum = List.fold_left (fun acc (_, ns) -> acc + ns) 0 totals in
      let gap = Stdlib.abs (phase_sum - total) in
      if total > 0 && gap * 100 > total then conserved := false;
      if n_clients = List.hd fleet_sweep && List.assoc "commit_p99" report > 0 then
        budget_ok := false;
      let frac ns =
        if total = 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int total
      in
      let share name = frac (Option.value ~default:0 (List.assoc_opt name totals)) in
      let phase (name, ns) =
        ( name,
          Json.Obj
            [ ("ns", Json.int ns);
              ("frac", Json.fixed 4 (if total = 0 then 0.0 else float_of_int ns /. float_of_int total))
            ] )
      in
      point_sections :=
        ( Printf.sprintf "clients_%d" n_clients,
          Json.Obj
            ([ ("txns", Json.int (Bess_obs.Critpath.txns cp)); ("total_ns", Json.int total);
               ("gap_ns", Json.int gap) ]
            @ List.map phase totals
            @ [ ( "slo",
                  Json.Obj
                    ([ ("checks", Json.int checks); ("breaches", Json.int (breaches report)) ]
                    @ List.map (fun (name, n) -> (name, Json.int n)) report) ) ]) )
        :: !point_sections;
      rows :=
        ([ Report.count n_clients; Report.count p.r.Driver.r_commits;
           Report.count (Bess_obs.Critpath.txns cp) ]
        @ List.map (fun name -> Printf.sprintf "%.1f%%" (share name)) phase_names
        @ [ Report.count (breaches report);
            Printf.sprintf "%.0f ms" (p.wall *. 1e3) ])
        :: !rows)
    fleet_sweep;
  Report.table ~id:"E15"
    ~caption:
      (Printf.sprintf
         "critical-path blame over the closed-loop sweep: per-phase share of total \
          transaction time, ~%d attempts per population, zipf(0.8) over %d pages, group:16; \
          SLO budget commit p99 < %dms per 10ms window"
         fleet_attempts fleet_pages (budget_ns / 1_000_000))
    ~header:([ "clients"; "commits"; "txns" ] @ phase_names @ [ "breaches"; "wall" ])
    (List.rev !rows);
  Report.gate !conserved
    "e15: attribution conservation (phases sum to measured latency within 1%%): ";
  Report.gate !budget_ok ~fail:"BREACHED"
    "e15: latency budget gate at %d clients (commit p99 < %dms): " (List.hd fleet_sweep)
    (budget_ns / 1_000_000);
  (* Same seed, fresh substrates: the blame decomposition and the
     breach counts must reproduce bit for bit. *)
  let _, cp2, _, report2 = run_point 1_000 in
  let fp2 = Bess_obs.Critpath.fingerprint cp2 in
  let deterministic = String.equal !fp_1000 fp2 && !breaches_1000 = breaches report2 in
  Report.gate deterministic ~pass:"OK (blame fingerprints and breach counts identical)"
    ~fail:
      (Printf.sprintf "FAILED (%s vs %s; breaches %d vs %d)" !fp_1000 fp2 !breaches_1000
         (breaches report2))
    "e15: same-seed determinism at 1000 clients: ";
  (* Observer effect: the same point with no plane installed must run
     the same schedule, so the same substrate counters and sim time. *)
  let bare = drive (fleet_db ()) (fleet_cfg ~seed 1_000) in
  let zero_cost =
    match !point_1000 with
    | Some p -> String.equal p.fp bare.fp && p.r.Driver.r_sim_ns = bare.r.Driver.r_sim_ns
    | None -> false
  in
  Report.gate zero_cost
    "e15: zero observer effect (fingerprint and sim time bit-identical without the planes): ";
  Report.artifact ~id:"e15" ~what:"blame breakdown" ~section:"e15"
    ~fields:
      [ ("seed", Json.int seed); ("clients", Json.Arr (List.map Json.int fleet_sweep));
        ("budget_ns", Json.int budget_ns); ("deterministic", Json.Bool deterministic);
        ("conserved", Json.Bool !conserved); ("zero_cost", Json.Bool zero_cost) ]
    ("points", Json.Obj (List.rev !point_sections))

(* ---- E17: sharded presumed-abort 2PC fleets ------------------------------ *)

type e17_point = {
  s_commits : int;
  s_cross : int;
  s_aborts : int;
  s_give_ups : int;
  s_indet : int;
  s_tp : float;
  s_wall : float;
  s_msgs_per_commit : float;
  s_twopc_frac : float; (* 2pc prepare/decide share of critical-path time *)
  s_counters : (string * int) list; (* select 2pc.* counters *)
  s_leaked : int;
  s_in_doubt : int;
  s_fp : string; (* Fleet fingerprint: outcome counts + image CRC *)
}

(* Closed-loop client fleets against a shard ring committing through
   presumed-abort 2PC: shards x clients sweep with a fixed cross-shard
   mix, the critical-path sink attributing the 2pc prepare/decide share,
   message amplification per committed transaction, and the 2pc.*
   counter plane. Gates: cross-shard commits > 0 at every point (the
   coordinator is really exercised), zero leaked locks and nothing left
   in doubt once every point quiesces, same-seed fingerprint (outcome
   counts + working-set CRC) byte-identical on a fresh ring, and a
   chaos-2pc run (message faults + coordinator/participant crashes)
   that still quiesces to zero leaks after re-drive + query resolution.
   Artifacts: bench_report.json#e17 and a timestamped BENCH_e17.json. *)
let e17 () =
  let sweep =
    if quick then [ (2, 16); (3, 32) ]
    else [ (2, 16); (2, 64); (4, 64); (4, 256); (8, 256) ]
  in
  let total_attempts = scale 8_000 in
  let seed = 1707 in
  let run_point ?faults ~n_shards n_clients =
    let sh = Bess_shard.Shard.create ~n:n_shards ~pages_per_shard:64 () in
    let cp = Bess_obs.Critpath.create ~top_k:8 () in
    let cfg =
      { Bess_shard.Fleet.default with
        n_clients;
        txns_per_client = Stdlib.max 1 (total_attempts / n_clients);
        cross_fraction = 0.25;
        zipf_theta = 0.8;
        seed;
      }
    in
    (* The plane is disarmed at the end of the run, then the ring
       quiesces: re-drive unacked decisions, resolve survivors by
       coordinator query — the same protocol a real restart runs. *)
    let r, wall =
      Planes.with_installed ?faults ~spans:(Bess_obs.Span.create ()) ~critpath:cp (fun () ->
          timed (fun () -> Bess_shard.Fleet.run sh cfg))
    in
    ignore (Bess_shard.Twopc.redrive (Bess_shard.Shard.coord sh));
    ignore (Bess_shard.Shard.resolve_in_doubt sh);
    let st = Bess_shard.Twopc.stats (Bess_shard.Shard.coord sh) in
    let total = Bess_obs.Critpath.total_ns cp in
    let totals = Bess_obs.Critpath.blame_totals cp in
    let twopc_ns = Option.value ~default:0 (List.assoc_opt "2pc" totals) in
    {
      s_commits = r.Bess_shard.Fleet.f_commits;
      s_cross = r.Bess_shard.Fleet.f_cross_commits;
      s_aborts = r.Bess_shard.Fleet.f_aborts;
      s_give_ups = r.Bess_shard.Fleet.f_give_ups;
      s_indet = r.Bess_shard.Fleet.f_indeterminate;
      s_tp = Bess_shard.Fleet.throughput r;
      s_wall = wall;
      s_msgs_per_commit =
        (if r.Bess_shard.Fleet.f_commits = 0 then 0.0
         else
           float_of_int (Bess_net.Net.messages (Bess_shard.Shard.net sh))
           /. float_of_int r.Bess_shard.Fleet.f_commits);
      s_twopc_frac =
        (if total = 0 then 0.0 else float_of_int twopc_ns /. float_of_int total);
      s_counters =
        List.map
          (fun k -> (k, Stats.get st k))
          [
            "2pc.begins"; "2pc.commits"; "2pc.aborts"; "2pc.vote_lost";
            "2pc.decisions_logged"; "2pc.redrives"; "2pc.presumed_aborts";
            "2pc.coord_crashes"; "2pc.queries";
          ];
      s_leaked = Bess_shard.Shard.locks_held sh;
      s_in_doubt = Bess_shard.Shard.in_doubt sh;
      s_fp = r.Bess_shard.Fleet.f_fingerprint;
    }
  in
  let point_json p =
    Json.Obj
      ([ ("commits", Json.int p.s_commits); ("cross_commits", Json.int p.s_cross);
         ("aborts", Json.int p.s_aborts); ("give_ups", Json.int p.s_give_ups);
         ("indeterminate", Json.int p.s_indet); ("throughput", Json.fixed 1 p.s_tp);
         ("msgs_per_commit", Json.fixed 2 p.s_msgs_per_commit);
         ("twopc_blame_frac", Json.fixed 4 p.s_twopc_frac);
         ("leaked_locks", Json.int p.s_leaked); ("in_doubt", Json.int p.s_in_doubt) ]
      @ List.map (fun (k, v) -> (k, Json.int v)) p.s_counters
      @ [ ("fingerprint", Json.Str p.s_fp) ])
  in
  let rows = ref [] in
  let point_sections = ref [] in
  let cross_ok = ref true and clean_ok = ref true in
  let fp_mid = ref "" in
  let mid = List.nth sweep (List.length sweep / 2) in
  List.iter
    (fun (n_shards, n_clients) ->
      let p = run_point ~n_shards n_clients in
      if (n_shards, n_clients) = mid then fp_mid := p.s_fp;
      if p.s_cross = 0 then cross_ok := false;
      if p.s_leaked <> 0 || p.s_in_doubt <> 0 then clean_ok := false;
      point_sections :=
        (Printf.sprintf "shards_%d_clients_%d" n_shards n_clients, point_json p)
        :: !point_sections;
      rows :=
        [
          Report.count n_shards;
          Report.count n_clients;
          Report.count p.s_commits;
          Report.count p.s_cross;
          Report.count p.s_aborts;
          Report.count p.s_give_ups;
          Printf.sprintf "%.0f/s" p.s_tp;
          Printf.sprintf "%.1f" p.s_msgs_per_commit;
          Printf.sprintf "%.1f%%" (100. *. p.s_twopc_frac);
          Printf.sprintf "%.0f ms" (p.s_wall *. 1e3);
        ]
        :: !rows)
    sweep;
  Report.table ~id:"E17"
    ~caption:
      (Printf.sprintf
         "sharded presumed-abort 2PC: closed-loop fleets over a shard ring (seed %d, \
          ~%d attempts, 25%% cross-shard, zipf(0.8) over 64 pages/shard); msgs/commit \
          counts every wire message, 2pc blame = prepare+decide share of critical-path \
          time"
         seed total_attempts)
    ~header:
      [ "shards"; "clients"; "commits"; "cross"; "aborts"; "give-ups"; "tp";
        "msgs/commit"; "2pc blame"; "wall" ]
    (List.rev !rows);
  Report.gate !cross_ok ~fail:"FAILED (a point never exercised 2PC)"
    "e17: cross-shard commits at every point: ";
  Report.gate !clean_ok "e17: zero leaked locks / zero in-doubt after quiesce at every point: ";
  (* Same seed, fresh ring: the Fleet fingerprint (outcome counts + the
     CRC of every shard's working set) must be byte-identical. *)
  let n_shards_mid, n_clients_mid = mid in
  let again = run_point ~n_shards:n_shards_mid n_clients_mid in
  let deterministic = String.equal !fp_mid again.s_fp in
  Report.gate deterministic ~pass:("OK (" ^ again.s_fp ^ ")")
    "e17: same-seed fingerprint determinism at %dx%d: " n_shards_mid n_clients_mid;
  (* Chaos under load: message faults plus coordinator and participant
     crash sites; commits may be lost, but after re-drive + query
     resolution nothing may stay locked or in doubt. *)
  let chaos =
    run_point
      ~faults:(!fault_seed, List.assoc "chaos-2pc" Fault.profiles)
      ~n_shards:n_shards_mid n_clients_mid
  in
  Report.gate (chaos.s_leaked = 0 && chaos.s_in_doubt = 0) ~pass:"" ~fail:""
    "e17: chaos under load (chaos-2pc, seed %d): %d commits, %d indeterminate, %d \
     redrives, %d leaked locks, %d in doubt"
    !fault_seed chaos.s_commits chaos.s_indet
    (Option.value ~default:0 (List.assoc_opt "2pc.redrives" chaos.s_counters))
    chaos.s_leaked chaos.s_in_doubt;
  Report.artifact ~id:"e17" ~what:"sharded 2PC sweep" ~section:"e17"
    ~fields:
      [ ("seed", Json.int seed); ("deterministic", Json.Bool deterministic);
        ("cross_shard_everywhere", Json.Bool !cross_ok);
        ("quiesced_clean", Json.Bool !clean_ok);
        ("chaos_leaked_locks", Json.int chaos.s_leaked);
        ("chaos_in_doubt", Json.int chaos.s_in_doubt) ]
    ("points", Json.Obj (List.rev !point_sections))

(* ---- E18: the memory X-ray ------------------------------------------------ *)

(* Online memory observability swept over Zipf skew x cache size on the
   closed-loop driver: the SHARDS miss-ratio curve sampler and the
   decayed page-heat sketch ride the cache's access hook while
   write-amplification accounting (WAL bytes forced + page writebacks
   per logical byte updated) comes from the always-on counters. Gates:
   (a) the MRC's predicted hit rate at the configured cache size lands
   within 5 points of the measured rate on every zipf(0.8) point;
   (b) a same-seed re-run renders byte-identical MRC and heat JSON;
   (c) a run that never installed the X-ray has bit-identical substrate
   counter fingerprints to one that installed it — the observer must
   not perturb the observed. Artifacts: bench_report.json#e18 and a
   timestamped BENCH_e18.json. *)
let e18 () =
  let total_attempts = scale 20_000 in
  let seed = 1818 in
  let n_clients = 200 in
  let skews = if quick then [ 0.0; 0.8 ] else [ 0.0; 0.8; 0.99 ] in
  let sizes = if quick then [ 256; 1024 ] else [ 128; 256; 1024 ] in
  let gate_skew = 0.8 in
  let run_point ~xray ~skew ~cache_slots =
    (* Pinned db_id: area ids (hence page keys, hence the key-labeled
       heat JSON) derive from it, and gate (b) compares those bytes
       across re-runs. *)
    let ((server, _) as db) = fleet_db ~cache_slots ~db_id:9181 () in
    let store = Bess.Server.store server in
    let cache = Bess.Store.cache store in
    let cstats = Bess_cache.Cache.stats cache in
    (* The working-set loader warms the cache before the X-ray goes in:
       both sketches and the measured hit rate see workload traffic
       only. *)
    let h0 = Stats.get cstats "cache.hits" and m0 = Stats.get cstats "cache.misses" in
    (* 1/4 spatial sampling: coarser rates leave too few sampled depths
       below the smallest swept cache size for a 5-point gate. *)
    let memx = if xray then Some (Bess_cache.Memx.install ~rate_bits:2 cache) else None in
    let p =
      drive db
        { Driver.default with
          n_clients;
          txns_per_client = Stdlib.max 1 (total_attempts / n_clients);
          zipf_theta = skew;
          seed;
        }
    in
    let dh = Stats.get cstats "cache.hits" - h0 in
    let dm = Stats.get cstats "cache.misses" - m0 in
    let measured =
      if dh + dm = 0 then 0.0 else float_of_int dh /. float_of_int (dh + dm)
    in
    let logical = Stats.get (Bess.Store.stats store) "store.logical_bytes" in
    let durable =
      Stats.get (Bess_wal.Log.stats (Bess.Store.log store)) "log.forced_bytes"
      + Stats.get (Bess.Store.stats store) "store.page_flush_bytes"
    in
    let wamp = if logical = 0 then 0.0 else float_of_int durable /. float_of_int logical in
    let x =
      Option.map
        (fun m ->
          let predicted = Bess_cache.Memx.predicted_hit_rate m in
          let mrc_json = Bess_obs.Mrc.json_of (Bess_cache.Memx.mrc m) in
          let heat_json =
            Bess_obs.Heat.json_of ~k:10 ~key_label:Bess_cache.Memx.key_label
              (Bess_cache.Memx.heat m)
          in
          Bess_cache.Memx.uninstall m;
          (predicted, mrc_json, heat_json))
        memx
    in
    ( p,
      measured,
      wamp,
      Stats.get cstats "cache.evict_clean",
      Stats.get cstats "cache.evict_dirty",
      x )
  in
  let rows = ref [] in
  let sections = ref [] in
  let accuracy_ok = ref true in
  let gate_fp = ref "" and gate_mrc = ref Json.Null and gate_heat = ref Json.Null in
  let gate_size = List.hd sizes in
  List.iter
    (fun skew ->
      List.iter
        (fun cache_slots ->
          let p, measured, wamp, evc, evd, x = run_point ~xray:true ~skew ~cache_slots in
          let predicted, mrc_json, heat_json =
            match x with Some v -> v | None -> assert false
          in
          let delta = abs_float (predicted -. measured) in
          let gated = abs_float (skew -. gate_skew) < 1e-9 in
          if gated && delta > 0.05 then begin
            accuracy_ok := false;
            Report.note "e18: ACCURACY MISS at skew %.2f slots %d: predicted %.1f%% vs \
                         measured %.1f%%"
              skew cache_slots (100.0 *. predicted) (100.0 *. measured)
          end;
          if gated && cache_slots = gate_size then begin
            gate_fp := p.fp;
            gate_mrc := mrc_json;
            gate_heat := heat_json
          end;
          sections :=
            ( Printf.sprintf "skew%.2f_slots%d" skew cache_slots,
              Json.Obj [ ("mrc", mrc_json); ("heat", heat_json) ] )
            :: !sections;
          rows :=
            [
              Printf.sprintf "%.2f" skew;
              Report.count cache_slots;
              Report.count p.r.Driver.r_commits;
              Printf.sprintf "%.1f%%" (100.0 *. measured);
              Printf.sprintf "%.1f%%" (100.0 *. predicted);
              Printf.sprintf "%.1f" (100.0 *. delta);
              Printf.sprintf "%.2fx" wamp;
              Report.count evc;
              Report.count evd;
              Printf.sprintf "%.0f ms" (p.wall *. 1e3);
            ]
            :: !rows)
        sizes)
    skews;
  Report.table ~id:"E18"
    ~caption:
      (Printf.sprintf
         "memory X-ray over zipf skew x cache size: ~%d txn attempts, %d clients over %d \
          pages, group:16; predicted = SHARDS MRC (rate 1/4) at the configured size, \
          measured = cache hits/(hits+misses) over the workload, wamp = durable bytes \
          (WAL forces + page writebacks) per logical byte"
         total_attempts n_clients fleet_pages)
    ~header:
      [ "skew"; "slots"; "commits"; "measured"; "predicted"; "delta pts"; "write-amp";
        "evict clean"; "evict dirty"; "wall" ]
    (List.rev !rows);
  Report.gate !accuracy_ok "e18: MRC accuracy gate (<= 5 points at configured size, zipf %.1f): "
    gate_skew;
  (* Same seed, fresh substrates: both sketches must render byte for
     byte the same artifacts (heat stamps are epoch-relative exactly so
     this holds at any absolute clock offset). *)
  let p2, _, _, _, _, x2 = run_point ~xray:true ~skew:gate_skew ~cache_slots:gate_size in
  let mrc2, heat2 = match x2 with Some (_, m, h) -> (m, h) | None -> assert false in
  let same a b = String.equal (Json.to_string a) (Json.to_string b) in
  let deterministic = same !gate_mrc mrc2 && same !gate_heat heat2 in
  Report.gate deterministic "e18: same-seed byte-identical MRC/heat JSON: ";
  (* Observer effect: the same point with the X-ray never installed must
     produce bit-identical substrate counter snapshots. *)
  let bare, _, _, _, _, _ = run_point ~xray:false ~skew:gate_skew ~cache_slots:gate_size in
  let zero_cost = String.equal !gate_fp p2.fp && String.equal p2.fp bare.fp in
  Report.gate zero_cost
    "e18: zero observer effect (counter fingerprints bit-identical without the X-ray): ";
  Report.artifact ~id:"e18" ~what:"memory X-ray sweep" ~section:"e18"
    ~fields:
      [ ("seed", Json.int seed); ("accuracy_ok", Json.Bool !accuracy_ok);
        ("deterministic", Json.Bool deterministic); ("zero_cost", Json.Bool zero_cost) ]
    ("points", Json.Obj (List.rev !sections))

(* ---- F1: segment and object structure (Figure 1) ------------------------- *)

let f1 () =
  let db = Workloads.fresh_db () in
  let s = Bess.Db.session db in
  let ty = Workloads.node_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:2 ~data_pages:8 () in
  let objs = Array.init 50 (fun _ -> Bess.Session.create_object s seg ty ~size:64) in
  Array.iteri
    (fun i o ->
      if i > 0 then
        Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s objs.(i - 1)) (Some o))
    objs;
  Bess.Session.commit s;
  let n_slots = Bess.Session.read_header_u32 s seg ~field:Bess.Layout.hdr_n_slots in
  let used = Bess.Session.read_header_u32 s seg ~field:Bess.Layout.hdr_data_used in
  Report.table ~id:"F1" ~caption:"segment and object structure (Figure 1), walked live"
    ~header:[ "structure"; "value" ]
    [
      [ "slotted segment header"; Printf.sprintf "%d bytes" Bess.Layout.header_size ];
      [ "slot (object header)"; Printf.sprintf "%d bytes" Bess.Layout.slot_size ];
      [ "slots in segment"; string_of_int n_slots ];
      [ "data segment bytes used"; string_of_int used ];
      [ "slot fields"; "TP, DP, size, uniq, flags, lock ptr" ];
      [ "DP fix-up at fault"; "dp <- dp - last_base + new_base (2 arithmetic ops)" ];
      [ "slot pages protection"; "read-only (corruption guard)" ];
      [ "data pages protection"; "read, write-faulting" ];
    ];
  (* Demonstrate the 2-op fix-up: a fresh session faults the segment in
     and every slot DP lands inside the newly reserved data range. *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let oid = Bess.Session.oid_of s objs.(0) in
  let o2 = Bess.Session.by_oid s2 oid in
  let seg2, _ = Bess.Session.seg_of_slot s2 o2 in
  let ok = ref true in
  for idx = 0 to n_slots - 1 do
    let dp = Bess.Session.read_slot_i64 s2 seg2 idx ~field:Bess.Layout.slot_dp in
    if dp < seg2.Bess.Session.data_base
       || dp >= seg2.Bess.Session.data_base + (8 * 4096)
    then ok := false
  done;
  Bess.Session.commit s2;
  Report.gate !ok ~pass:"all DPs inside the reserved data range" ~fail:"FIX-UP BROKEN"
    "DP fix-up verified for %d slots in a fresh address space: " n_slots

(* ---- F2: network topology (Figure 2) ------------------------------------- *)

let f2 () =
  (* Two servers; an application on node 2 co-located with server A; a
     node server on node 3; a bare application on node 1 talking to both
     servers directly. *)
  let net = Bess.Remote.network () in
  let db_a = Workloads.fresh_db () in
  let db_b = Workloads.fresh_db () in
  Bess.Remote.serve net (Bess.Db.server db_a);
  Bess.Remote.serve net (Bess.Db.server db_b);
  let msgs () = Bess_net.Net.messages net in
  (* Co-located app (direct calls, no wire). *)
  let before = msgs () in
  let s_local = Bess.Db.session db_a in
  Bess.Session.begin_txn s_local;
  let ty = Workloads.node_type db_a in
  let seg = Bess.Session.create_segment s_local ~slotted_pages:1 ~data_pages:1 () in
  ignore (Bess.Session.create_object s_local seg ty ~size:32);
  Bess.Session.commit s_local;
  let local_msgs = msgs () - before in
  (* Bare application on node 1: messages to both servers. *)
  let before = msgs () in
  let s_remote = Bess.Remote.session net ~client_id:7001 db_a in
  Bess.Remote.attach net ~client_id:7001 s_remote db_b;
  Bess.Session.begin_txn s_remote;
  let ty_a = Workloads.node_type db_a in
  let seg_a = Bess.Session.create_segment s_remote ~slotted_pages:1 ~data_pages:1 () in
  ignore (Bess.Session.create_object s_remote seg_a ty_a ~size:32);
  Bess.Session.commit s_remote;
  let remote_msgs = msgs () - before in
  (* Application behind a node server on node 3. *)
  let node =
    Bess.Node_server.create ~n_procs:1
      (Bess.Fetcher.direct ~client_id:7100 (Bess.Db.server db_a))
  in
  let page =
    { Page_id.area = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.area;
      page = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.first_page }
  in
  ignore (Bess.Node_server.shm_access node ~proc:0 page ~write:false);
  ignore (Bess.Node_server.shm_access node ~proc:0 page ~write:false);
  Bess.Node_server.commit node;
  let upstream = Stats.get (Bess.Node_server.stats node) "node.upstream_fetches" in
  Report.table ~id:"F2" ~caption:"a network of BeSS servers and clients (Figure 2)"
    ~header:[ "application placement"; "wire messages for one small txn" ]
    [
      [ "node 2: co-located with server (direct)"; string_of_int local_msgs ];
      [ "node 1: bare client, RPC per operation"; string_of_int remote_msgs ];
      [ "node 3: behind node server (local IPC only)";
        string_of_int upstream ^ " upstream fetches, rest served from shared cache" ];
    ];
  Report.gate (local_msgs = 0) "f2: wire messages of the co-located application: %d (0): "
    local_msgs;
  (* Two accesses to one page: the second is served from the shared
     cache. *)
  Report.gate (upstream = 1) "f2: upstream fetches behind the node server, one page read twice: %d (1): "
    upstream

(* ---- F3: the node-server cache (Figure 3) --------------------------------- *)

let f3 () =
  let db = Workloads.fresh_db () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:2 ~data_pages:16 () in
  let ty = Workloads.node_type db in
  for _ = 1 to 100 do
    ignore (Bess.Session.create_object s seg ty ~size:Workloads.node_size)
  done;
  Bess.Session.commit s;
  let node =
    Bess.Node_server.create ~cache_slots:8 ~n_vframes:32 ~n_procs:2
      (Bess.Fetcher.direct ~client_id:7200 (Bess.Db.server db))
  in
  (* Application A: shared-memory mode; application B: copy-on-access. *)
  let page i =
    { Page_id.area = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.area;
      page = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.first_page + i }
  in
  for i = 0 to 5 do
    ignore (Bess.Node_server.shm_access node ~proc:0 (page i) ~write:false)
  done;
  let _copy = Bess.Node_server.coa_fetch node (page 6) ~write:false in
  Bess.Node_server.commit node;
  let st = Bess.Node_server.stats node in
  let upstream = Stats.get st "node.upstream_fetches"
  and smt_entries = Bess_cache.Smt.n_assigned (Bess.Node_server.smt node) in
  Report.table ~id:"F3" ~caption:"shared memory established by the node server (Figure 3)"
    ~header:[ "cache element"; "state" ]
    [
      [ "cache slots (frames)"; string_of_int (Bess_cache.Cache.nslots (Bess.Node_server.cache node)) ];
      [ "resident pages"; string_of_int (Bess_cache.Cache.n_resident (Bess.Node_server.cache node)) ];
      [ "SMT entries (SVMA frames assigned)"; string_of_int smt_entries ];
      [ "processes attached (A: shm, B: coa)"; string_of_int (Array.length (Bess.Node_server.procs node)) ];
      [ "A's accesses (in-place, latched)"; string_of_int (Stats.get st "node.shm_accesses") ];
      [ "B's fetches (IPC, copied)"; string_of_int (Stats.get st "node.coa_fetches") ];
      [ "upstream fetches from owning server"; string_of_int upstream ];
    ];
  (* Seven distinct pages fit the eight-slot cache: each is fetched from
     the owning server once. Only A's six shared-memory pages get an
     SVMA frame; B's copy does not. *)
  Report.gate (upstream = 7) "f3: upstream fetches for the distinct pages touched: %d (7): "
    upstream;
  Report.gate (smt_entries = 6) "f3: SMT entries for A's shared-memory pages: %d (6): "
    smt_entries

(* ---- F4: SVMA mapping scenario (Figure 4) --------------------------------- *)

let f4 () =
  let db = Workloads.fresh_db () in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:4 () in
  Bess.Session.commit s;
  let node =
    Bess.Node_server.create ~cache_slots:2 ~n_vframes:8 ~n_procs:2
      (Bess.Fetcher.direct ~client_id:7300 (Bess.Db.server db))
  in
  let page i =
    { Page_id.area = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.area;
      page = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.first_page + i }
  in
  let a = page 0 and b = page 1 and c = page 2 in
  let _, vf_a = Bess.Node_server.shm_access node ~proc:0 a ~write:false in
  let _, vf_b = Bess.Node_server.shm_access node ~proc:1 b ~write:false in
  let state_a =
    [ [ "P1 maps A"; Printf.sprintf "virtual frame %d" vf_a ];
      [ "P2 maps B"; Printf.sprintf "virtual frame %d" vf_b ] ]
  in
  let _, vf_c = Bess.Node_server.shm_access node ~proc:1 c ~write:false in
  let _, vf_c' = Bess.Node_server.shm_access node ~proc:0 c ~write:false in
  let smt = Bess.Node_server.smt node in
  let released =
    match (Bess_cache.Smt.vframe_of smt a, Bess_cache.Smt.vframe_of smt b) with
    | None, _ -> Some "A's frame released"
    | _, None -> Some "B's frame released"
    | _ -> None
  in
  Report.table ~id:"F4" ~caption:"shared virtual memory address space (Figure 4) replayed"
    ~header:[ "step"; "outcome" ]
    (state_a
    @ [
        [ "P2 accesses C (cache full, 2 slots)";
          Printf.sprintf "replacement ran; C at virtual frame %d" vf_c ];
        [ "P1 accesses C via SVMA";
          (if vf_c = vf_c' then
             Printf.sprintf "same virtual frame %d (shared pointers stay valid)" vf_c'
           else Printf.sprintf "virtual frame %d" vf_c') ];
        [ "replaced page's SVMA frame"; Option.value released ~default:"none released" ];
      ]);
  Report.gate (vf_c = vf_c') "f4: P1 sees C at P2's virtual frame (%d vs %d): " vf_c' vf_c;
  Report.gate (released <> None) "f4: the replaced page's SVMA frame is released: "

(* ---- A1: eager vs on-deref swizzling -------------------------------------- *)

let a1 () =
  let n = scale 20_000 in
  let results =
    List.map
      (fun (label, policy, revisits) ->
        let db = Workloads.fresh_db () in
        let _s, _nodes = Workloads.build_ring db ~n ~per_seg:500 ~stride:1 in
        let s2 = Bess.Db.session ~pool_slots:8192 db in
        Bess.Session.set_swizzle_policy s2 policy;
        Bess.Session.begin_txn s2;
        let head = Option.get (Bess.Session.root s2 "ring_head") in
        let t =
          Report.time_ns ~runs:1 (fun () ->
              for _ = 1 to revisits do
                ignore (Workloads.traverse_ring s2 ~start:head ~hops:n)
              done)
        in
        let st = Bess.Session.stats s2 in
        Bess.Session.commit s2;
        (label, policy, revisits, t, Stats.get st "session.swizzles",
         Stats.get st "session.deref_swizzles"))
      [
        ("eager (wave-2, BeSS)", Bess.Session.Eager, 1);
        ("eager (wave-2, BeSS)", Bess.Session.Eager, 8);
        ("on-deref (software)", Bess.Session.On_deref, 1);
        ("on-deref (software)", Bess.Session.On_deref, 8);
      ]
  in
  Report.table ~id:"A1"
    ~caption:
      "ablation: eager swizzling at fetch vs translate-on-every-deref (hot \
       traversals amortise the eager pass)"
    ~header:[ "policy"; "traversals"; "ns/hop"; "fetch swizzles"; "deref translations" ]
    (List.map
       (fun (label, _, revisits, t, swizzles, translations) ->
         [ label; string_of_int revisits; Report.ns (t /. float_of_int (revisits * n));
           Report.count swizzles; Report.count translations ])
       results);
  (* Eager swizzling translates each of the ring's n references once, at
     fetch, and no dereference translates; on-deref never swizzles at
     fetch and translates once per hop of every traversal. *)
  List.iter
    (fun (label, policy, revisits, _, swizzles, translations) ->
      let want_swizzles, want_translations =
        match policy with Bess.Session.Eager -> (n, 0) | Bess.Session.On_deref -> (0, n * revisits)
      in
      Report.gate
        (swizzles = want_swizzles && translations = want_translations)
        "a1: %s, %d traversals: %d fetch swizzles (%d), %d deref translations (%d): " label
        revisits swizzles want_swizzles translations want_translations)
    results

(* ---- A2: slot indirection cost -------------------------------------------- *)

let a2 () =
  let n = scale 20_000 in
  let iters = scale 500_000 in
  let db = Workloads.fresh_db () in
  let s, nodes = Workloads.build_ring db ~n ~per_seg:500 ~stride:1 in
  Bess.Session.begin_txn s;
  ignore (Workloads.traverse_ring s ~start:nodes.(0) ~hops:n);
  (* Through the header: read the slot's DP, then the payload -- two
     memory accesses, as a ref<T> dereference performs. *)
  let vm = Bess.Session.mem s in
  let via_slot =
    Report.time_per_op ~iters
      (let i = ref 0 in
       fun () ->
         let slot = nodes.(!i land 1023) in
         let dp = Vmem.read_i64 vm (slot + Bess.Layout.slot_dp) in
         ignore (Vmem.read_i64 vm (dp + 8));
         incr i)
  in
  (* Pre-resolved direct data pointers (what giving up relocation buys):
     one memory access. *)
  let direct = Array.map (fun o -> Bess.Session.obj_data s o) nodes in
  let via_direct =
    Report.time_per_op ~iters
      (let i = ref 0 in
       fun () ->
         ignore (Vmem.read_i64 vm (direct.(!i land 1023) + 8));
         incr i)
  in
  Bess.Session.commit s;
  Report.table ~id:"A2"
    ~caption:
      "ablation: the DP hop through the object header vs raw data pointers \
       (the price of relocation freedom, cf. E6)"
    ~header:[ "access path"; "ns/read"; "overhead" ]
    [
      [ "slot header then data (BeSS)"; Report.ns via_slot; Report.ratio (via_slot /. via_direct) ];
      [ "direct data pointer"; Report.ns via_direct; Report.ratio 1.0 ];
    ]

(* ---- A3: page vs object locking ------------------------------------------- *)

let a3 () =
  let iters = scale 20_000 in
  let rows = ref [] in
  List.iter
    (fun objs_per_page ->
      (* Page locking: one lock covers all objects on the page. *)
      let m = Bess_lock.Lock_mgr.create () in
      let t_page =
        Report.time_per_op ~iters (fun () ->
            let r = Bess_lock.Lock_mgr.page_resource ~area:0 ~page:1 in
            ignore (Bess_lock.Lock_mgr.acquire m ~txn:1 r Bess_lock.Lock_mode.X))
      in
      ignore (Bess_lock.Lock_mgr.release_all m ~txn:1);
      (* Object locking (the section 2.3 future work): one lock per
         object touched. *)
      let m2 = Bess_lock.Lock_mgr.create () in
      let t_obj =
        Report.time_per_op ~iters (fun () ->
            for i = 0 to objs_per_page - 1 do
              let r = Bess_lock.Lock_mgr.object_resource ~db:0 ~slot:i in
              ignore (Bess_lock.Lock_mgr.acquire m2 ~txn:1 r Bess_lock.Lock_mode.X)
            done)
      in
      ignore (Bess_lock.Lock_mgr.release_all m2 ~txn:1);
      rows :=
        [
          string_of_int objs_per_page;
          Report.ns t_page;
          Report.ns t_obj;
          Report.ratio (t_obj /. t_page);
        ]
        :: !rows)
    [ 1; 4; 16; 64 ];
  Report.table ~id:"A3"
    ~caption:
      "ablation: page-grain locking (hardware detected) vs object-grain \
       software locks, per txn touching one page"
    ~header:[ "objects touched"; "page-lock cost"; "object-lock cost"; "obj/page" ]
    (List.rev !rows);
  Report.note "object locking wins only when page conflicts dominate; cf. section 2.3"

(* ---- R1: a relational DBMS on BeSS (the configurability claim) ----- *)

(* Section 1's pitch: BeSS provides the facilities to build relational
   DBMSs. The bess_rel layer does so; this experiment measures the query
   paths it gets for free from the storage manager: pointer joins over
   swizzled foreign keys vs value joins, and index probes (hash and
   B+-tree) vs scans. *)
let r1 () =
  let module Table = Bess_rel.Table in
  let module Schema = Bess_rel.Schema in
  let module Hash_index = Bess_rel.Hash_index in
  let module Btree = Bess_rel.Btree in
  let n_orders = scale 20_000 in
  let n_customers = Stdlib.max 1 (n_orders / 10) in
  let db = Workloads.fresh_db () in
  let s = Bess.Db.session ~pool_slots:16384 db in
  Bess.Session.begin_txn s;
  let customers =
    Table.create s ~name:"customers" [ ("id", Schema.Int); ("name", Schema.Text 16) ]
  in
  let orders =
    Table.create s ~name:"orders"
      [ ("id", Schema.Int); ("total", Schema.Int); ("cust", Schema.Ref "customers") ]
  in
  let hidx = Hash_index.create s ~name:"orders_by_id" ~n_buckets:1024 () in
  let bidx = Btree.create s ~name:"orders_by_total" () in
  let prng = Prng.create 77 in
  let custs =
    Array.init n_customers (fun i ->
        Table.insert customers [ Table.VInt i; Table.VText (Printf.sprintf "c%d" i) ])
  in
  for i = 0 to n_orders - 1 do
    let row =
      Table.insert orders
        [ Table.VInt i; Table.VInt (Prng.int prng 100_000);
          Table.VRef (Some custs.(Prng.int prng n_customers)) ]
    in
    Hash_index.insert hidx ~key:i row;
    Btree.insert bidx ~key:(Table.get_int orders row "total") row
  done;
  Bess.Session.commit s;
  Bess.Session.begin_txn s;
  (* point query: scan vs hash probe vs btree probe on id/total *)
  let scan_ns =
    Report.time_ns ~runs:3 (fun () ->
        ignore (Table.select orders ~where:(fun r -> Table.get_int orders r "id" = n_orders / 2)))
  in
  let probes = ref 0 and probes_found = ref 0 in
  let probe_ns =
    Report.time_per_op ~iters:(scale 2_000)
      (let i = ref 0 in
       fun () ->
         incr i;
         incr probes;
         match Hash_index.lookup hidx ~key:(!i mod n_orders) with
         | [] -> ()
         | _ :: _ -> incr probes_found)
  in
  let btree_ns =
    Report.time_per_op ~iters:(scale 2_000)
      (let i = ref 0 in
       fun () ->
         incr i;
         ignore (Btree.lookup bidx ~key:(!i * 37 mod 100_000)))
  in
  (* range query: btree range vs filtered scan *)
  let range_rows = ref 0 and scan_rows = ref 0 in
  let range_btree_ns =
    Report.time_ns ~runs:3 (fun () ->
        let n = ref 0 in
        Btree.range bidx ~lo:50_000 ~hi:51_000 (fun _ _ -> incr n);
        range_rows := !n)
  in
  let range_scan_ns =
    Report.time_ns ~runs:3 (fun () ->
        scan_rows :=
          List.length
            (Table.select orders ~where:(fun r ->
                 let v = Table.get_int orders r "total" in
                 v >= 50_000 && v <= 51_000)))
  in
  (* join: pointer dereference vs nested loop on ids *)
  let join_pairs = ref 0 in
  let ptr_join_ns =
    Report.time_ns ~runs:3 (fun () ->
        let n = ref 0 in
        Table.join_ref orders ~ref_col:"cust" (fun _ _ -> incr n);
        join_pairs := !n)
  in
  let sample = Stdlib.max 1 (n_orders / 100) in
  let nested_join_ns =
    Report.time_ns ~runs:1 (fun () ->
        let n = ref 0 in
        Table.join_nested orders
          ~where:(fun r -> Table.get_int orders r "id" < sample)
          ~on:(fun o c ->
            match Table.get_ref orders o "cust" with
            | Some t -> t = c
            | None -> false)
          customers
          (fun _ _ -> incr n))
  in
  let nested_scaled = nested_join_ns *. float_of_int (n_orders / sample) in
  Bess.Session.commit s;
  Report.table ~id:"R1"
    ~caption:
      "a relational DBMS built on BeSS (the section-1 configurability \
       claim): what the storage manager's references and objects buy"
    ~header:[ "query path"; "time"; "notes" ]
    [
      [ "point: full scan"; Report.ns scan_ns; Printf.sprintf "%d rows scanned" n_orders ];
      [ "point: hash index probe"; Report.ns probe_ns; "objects as buckets" ];
      [ "point: b+tree probe"; Report.ns btree_ns; "objects as nodes" ];
      [ "range 1%: b+tree"; Report.ns range_btree_ns; "leaf chain walk" ];
      [ "range 1%: scan"; Report.ns range_scan_ns; "" ];
      [ "join: swizzled FK (all rows)"; Report.ns ptr_join_ns; "one pointer hop/row" ];
      [ "join: nested loop (extrapolated)"; Report.ns nested_scaled;
        Printf.sprintf "measured on %d rows" sample ];
    ];
  Report.gate (!range_rows = !scan_rows)
    "r1: b+tree range rows equal the filtered scan's (%d, %d): " !range_rows !scan_rows;
  Report.gate (!probes_found = !probes)
    "r1: hash probes that find their key: %d of %d: " !probes_found !probes;
  Report.gate (!join_pairs = n_orders)
    "r1: swizzled-FK join pairs, one per order: %d (%d): " !join_pairs n_orders

(* ---- T1: causal tracing demo ---------------------------------------------- *)

(* A single workload that exercises every traced substrate: remote
   write transactions (net.rpc, vmem.fault, cache.miss, wal.append,
   wal.force) plus a direct lock race between two clients so a genuine
   lock.wait is enqueued in the lock table. Session-path conflicts are
   resolved by callbacks without ever blocking there, so the race uses
   [Server.lock]/[Server.commit_client] directly. *)
let t1 () =
  let db = Workloads.fresh_db () in
  let net = Bess.Remote.network () in
  Bess.Remote.serve net (Bess.Db.server db);
  let s = Bess.Remote.session net ~client_id:9001 db in
  let ty = Workloads.node_type db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:4 ~data_pages:8 () in
  let objs = Array.init 32 (fun _ -> Bess.Session.create_object s seg ty ~size:32) in
  Bess.Session.commit s;
  let prng = Prng.create 11 in
  for _ = 1 to 8 do
    Bess.Session.begin_txn s;
    for _ = 1 to 4 do
      let o = objs.(Prng.int prng 32) in
      Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) (Prng.next_int prng)
    done;
    Bess.Session.commit s
  done;
  (* Cold restart of the client cache: the next dereference runs the
     fault waves from a trap, so the timeline shows session.fault spans
     nested under vmem.fault. *)
  Bess.Session.begin_txn s;
  Bess.Session.set_root s ~name:"t1" objs.(0);
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  Bess.Session.begin_txn s;
  let o = Option.get (Bess.Session.root s "t1") in
  ignore (Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8));
  Bess.Session.commit s;
  let server = Bess.Db.server db in
  let a = Bess.Server.begin_txn server ~client:1 in
  let b = Bess.Server.begin_txn server ~client:2 in
  let r = Bess_lock.Lock_mgr.page_resource ~area:0 ~page:4095 in
  (match Bess.Server.lock server ~txn:a r Bess_lock.Lock_mode.X with
  | `Granted -> ()
  | _ -> failwith "t1: first lock should be granted");
  (match Bess.Server.lock server ~txn:b r Bess_lock.Lock_mode.X with
  | `Blocked -> ()
  | _ -> failwith "t1: second lock should block");
  (match Bess.Server.commit_client server ~txn:a ~updates:[] with
  | `Committed -> ()
  | `Lock_violation -> failwith "t1: empty commit rejected");
  (match Bess.Server.lock server ~txn:b r Bess_lock.Lock_mode.X with
  | `Granted -> ()
  | _ -> failwith "t1: retried lock should be granted");
  (match Bess.Server.commit_client server ~txn:b ~updates:[] with
  | `Committed -> ()
  | `Lock_violation -> failwith "t1: empty commit rejected");
  Report.note "t1: traced %d remote txns and one lock race" 9

(* ---- Dispatcher ------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7);
    ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13);
    ("e14", e14); ("e15", e15); ("e17", e17); ("e18", e18);
    ("f1", f1); ("f2", f2); ("f3", f3);
    ("f4", f4);
    ("a1", a1); ("a2", a2); ("a3", a3); ("r1", r1); ("t1", t1);
  ]

let () =
  (* Flag parsing: --quick is consumed globally (see [quick] above);
     --out/--chrome take a value; --trace enables span collection. *)
  let out = ref "bench_report.json" in
  let chrome = ref None in
  let trace = ref false in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--out" :: path :: rest ->
        out := path;
        parse rest
    | "--chrome" :: path :: rest ->
        trace := true;
        chrome := Some path;
        parse rest
    | "--fault-seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> fault_seed := n
        | None -> Printf.printf "bad --fault-seed %S (ignored)\n" v);
        parse rest
    | a :: rest when String.length a > 1 && a.[0] = '-' ->
        Printf.printf "unknown flag %S (ignored)\n" a;
        parse rest
    | a :: rest ->
        names := a :: !names;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match List.rev !names with
    | [] -> List.map fst experiments
    | l -> l
  in
  let collector =
    if !trace then begin
      let c = Bess_obs.Span.create ~capacity:(1 lsl 18) () in
      Bess_obs.Span.install (Some c);
      Some c
    end
    else None
  in
  Printf.printf "BeSS experiment harness (%s scale)\n" (if quick then "quick" else "full");
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> Report.with_observed name f
      | None -> Printf.printf "unknown experiment %S\n" name)
    selected;
  Option.iter Bess_obs.Span.finish_all collector;
  Report.gate_counters_nonnegative ();
  Report.write_json !out;
  Printf.printf "\nper-substrate observability report: %s\n" !out;
  Option.iter
    (fun c ->
      (match Bess_obs.Span.slowest c with
      | Some root ->
          Printf.printf "\nslowest transaction timeline (simulated ns):\n";
          Fmt.pr "%a@." (Bess_obs.Span.pp_tree c) root
      | None -> Printf.printf "\nno spans collected.\n");
      let path = Option.value ~default:"bench_trace.json" !chrome in
      let oc = open_out path in
      output_string oc (Bess_obs.Span.to_chrome_json (Some c));
      close_out oc;
      Printf.printf "chrome trace (chrome://tracing, about:tracing or ui.perfetto.dev): %s\n" path)
    collector;
  Printf.printf "\ndone.\n";
  if !Report.gates_failed > 0 then begin
    Printf.eprintf "%d bench gate(s) failed\n" !Report.gates_failed;
    exit 1
  end
