(* bess_vmem: reservation, protection, fault dispatch, accounting. *)

module Vmem = Bess_vmem.Vmem

let test_reserve_release_reuse () =
  let vm = Vmem.create ~page_size:256 () in
  let a = Vmem.reserve vm 4 in
  let b = Vmem.reserve vm 2 in
  Alcotest.(check bool) "distinct ranges" true (a <> b);
  Alcotest.(check int) "reserved bytes" ((4 + 2) * 256) (Vmem.reserved_bytes vm);
  Vmem.release vm a 4;
  Alcotest.(check int) "after release" (2 * 256) (Vmem.reserved_bytes vm);
  let c = Vmem.reserve vm 4 in
  Alcotest.(check int) "freed range reused" a c;
  Alcotest.(check int) "peak sticks" ((4 + 2) * 256) (Vmem.reserved_peak_bytes vm)

let test_null_page_traps () =
  let vm = Vmem.create () in
  let trapped = try ignore (Vmem.read_u8 vm 0); false with Vmem.Access_violation _ -> true in
  Alcotest.(check bool) "address 0 traps" true trapped

let test_protection_and_fault_handler () =
  let vm = Vmem.create ~page_size:256 () in
  let addr = Vmem.reserve vm 1 in
  let frame = Bytes.make 256 '\000' in
  let faults = ref [] in
  Vmem.set_fault_handler vm (fun vm ~addr ~access ->
      faults := access :: !faults;
      if Vmem.frame_at vm addr = None then Vmem.map vm addr frame;
      Vmem.set_prot vm addr 1
        (match access with Vmem.Read -> Prot_read | Vmem.Write -> Prot_read_write));
  (* Read faults once, then is free. *)
  ignore (Vmem.read_u8 vm addr);
  ignore (Vmem.read_u8 vm (addr + 10));
  Alcotest.(check int) "one read fault" 1 (List.length !faults);
  (* Write faults once more (page is read-only). *)
  Vmem.write_u8 vm (addr + 1) 7;
  Vmem.write_u8 vm (addr + 2) 8;
  Alcotest.(check int) "one write fault" 2 (List.length !faults);
  Alcotest.(check int) "store landed in frame" 7 (Char.code (Bytes.get frame 1))

let test_unresolved_fault_raises () =
  let vm = Vmem.create ~page_size:256 () in
  let addr = Vmem.reserve vm 1 in
  Vmem.set_fault_handler vm (fun _ ~addr:_ ~access:_ -> () (* does nothing *));
  let trapped = try ignore (Vmem.read_u8 vm addr); false with Vmem.Access_violation _ -> true in
  Alcotest.(check bool) "handler must resolve" true trapped

let test_cross_page_access () =
  let vm = Vmem.create ~page_size:256 () in
  let addr = Vmem.reserve vm 2 in
  Vmem.map vm addr (Bytes.make 256 '\000');
  Vmem.map vm (addr + 256) (Bytes.make 256 '\000');
  Vmem.set_prot vm addr 2 Prot_read_write;
  (* An 8-byte value straddling the page boundary. *)
  Vmem.write_i64 vm (addr + 252) 0x1122334455667788;
  Alcotest.(check int) "straddling i64" 0x1122334455667788 (Vmem.read_i64 vm (addr + 252));
  let s = "hello across the page boundary" in
  Vmem.write_string vm (addr + 240) s;
  Alcotest.(check string) "straddling string" s
    (Vmem.read_string vm (addr + 240) (String.length s))

let test_with_unprotected () =
  let vm = Vmem.create ~page_size:256 () in
  let addr = Vmem.reserve vm 1 in
  Vmem.map vm addr (Bytes.make 256 '\000');
  Vmem.set_prot vm addr 1 Prot_read;
  let before = Bess_util.Stats.get (Vmem.stats vm) "vmem.protect_calls" in
  Vmem.with_unprotected vm addr 1 (fun () -> Vmem.write_u8 vm (addr + 5) 9);
  Alcotest.(check int) "value written" 9 (Vmem.read_u8 vm (addr + 5));
  Alcotest.(check (module struct type t = Bess_vmem.Vmem.prot let pp = Vmem.pp_prot let equal = (=) end))
    "protection restored" Vmem.Prot_read (Vmem.prot_at vm addr);
  let after = Bess_util.Stats.get (Vmem.stats vm) "vmem.protect_calls" in
  Alcotest.(check int) "two mprotect syscalls" 2 (after - before)

let test_syscall_accounting () =
  let vm = Vmem.create ~page_size:256 () in
  let addr = Vmem.reserve vm 4 in
  Vmem.set_prot vm addr 4 Prot_none;
  Vmem.set_prot vm addr 2 Prot_read_write;
  Alcotest.(check int) "protect_calls" 2
    (Bess_util.Stats.get (Vmem.stats vm) "vmem.protect_calls")

let prop_rw_roundtrip =
  QCheck.Test.make ~name:"vmem read/write roundtrip" ~count:200
    QCheck.(pair (int_bound 1000) (small_list (int_bound 255)))
    (fun (off, bytes) ->
      let vm = Vmem.create ~page_size:512 () in
      let addr = Vmem.reserve vm 4 in
      for i = 0 to 3 do
        Vmem.map vm (addr + (i * 512)) (Bytes.create 512)
      done;
      Vmem.set_prot vm addr 4 Prot_read_write;
      let data = Bytes.of_string (String.init (List.length bytes) (fun i -> Char.chr (List.nth bytes i))) in
      Vmem.write_bytes vm (addr + off) data;
      Bytes.equal (Vmem.read_bytes vm (addr + off) (Bytes.length data)) data)

(* Released neighbours must merge back into one range, so a later larger
   reservation reuses the address space instead of bumping the frontier. *)
let test_release_coalesces_reuse () =
  let vm = Vmem.create ~page_size:256 () in
  let a = Vmem.reserve vm 2 in
  let b = Vmem.reserve vm 2 in
  let c = Vmem.reserve vm 2 in
  Alcotest.(check int) "b follows a" (a + (2 * 256)) b;
  Alcotest.(check int) "c follows b" (b + (2 * 256)) c;
  (* Out-of-order releases: the middle one bridges its neighbours. *)
  Vmem.release vm a 2;
  Vmem.release vm c 2;
  Vmem.release vm b 2;
  let d = Vmem.reserve vm 6 in
  Alcotest.(check int) "coalesced range satisfies a larger reserve" a d;
  Alcotest.(check int) "no frontier growth" (6 * 256) (Vmem.reserved_peak_bytes vm)

let test_tlb_hits_and_invalidation () =
  let vm = Vmem.create ~page_size:256 () in
  let addr = Vmem.reserve vm 2 in
  Vmem.map vm addr (Bytes.make 256 '\000');
  Vmem.map vm (addr + 256) (Bytes.make 256 '\000');
  Vmem.set_prot vm addr 2 Prot_read_write;
  let hits () = Bess_util.Stats.get (Vmem.stats vm) "vmem.tlb_hits" in
  Vmem.write_u8 vm addr 1 (* miss: fills the cache *);
  let h0 = hits () in
  ignore (Vmem.read_u8 vm addr);
  ignore (Vmem.read_u8 vm (addr + 5));
  Alcotest.(check int) "same-page accesses hit" (h0 + 2) (hits ());
  ignore (Vmem.read_u8 vm (addr + 256));
  Alcotest.(check int) "other-page access misses" (h0 + 2) (hits ());
  (* Correctness over speed: a cached translation must not outlive a
     protection downgrade, an unmap, or a release. *)
  ignore (Vmem.read_u8 vm addr) (* re-cache page 0 as readable+writable *);
  Vmem.set_prot vm addr 1 Prot_read;
  let trapped = try Vmem.write_u8 vm addr 9; false with Vmem.Access_violation _ -> true in
  Alcotest.(check bool) "write after downgrade faults" true trapped;
  Vmem.set_prot vm addr 1 Prot_read_write;
  Vmem.write_u8 vm addr 3 (* re-cache *);
  Vmem.unmap vm addr;
  let trapped = try ignore (Vmem.read_u8 vm addr); false with Vmem.Access_violation _ -> true in
  Alcotest.(check bool) "read after unmap faults" true trapped;
  let e = Vmem.reserve vm 1 in
  Vmem.map vm e (Bytes.make 256 '\000');
  Vmem.set_prot vm e 1 Prot_read_write;
  Vmem.write_u8 vm e 1 (* cached *);
  Vmem.release vm e 1;
  let trapped = try ignore (Vmem.read_u8 vm e); false with Vmem.Access_violation _ -> true in
  Alcotest.(check bool) "access after release faults" true trapped

(* The protected-pages gauge is the count of reserved pages short of
   read-write, after any mix of protection changes: [with_unprotected]
   restores each page's protection through the same accounting. *)
let test_protected_pages_gauge () =
  Bess_obs.Registry.with_fresh @@ fun () ->
  let vm = Vmem.create ~page_size:256 () in
  let gauge () =
    List.assoc "vmem.protected_pages" (Bess_obs.Registry.gauges (Bess_obs.Registry.snapshot ()))
  in
  let addr = Vmem.reserve vm 2 in
  let recount () =
    List.length
      (List.filter (fun i -> Vmem.prot_at vm (addr + (i * 256)) <> Vmem.Prot_read_write) [ 0; 1 ])
  in
  let check label =
    Alcotest.(check int) (label ^ ": gauge matches the page table") (recount ()) (gauge ())
  in
  check "reserved";
  Alcotest.(check int) "both reserved pages count" 2 (gauge ());
  Vmem.map vm addr (Bytes.make 256 '\000');
  Vmem.map vm (addr + 256) (Bytes.make 256 '\000');
  Vmem.set_prot vm addr 1 Prot_read;
  Vmem.with_unprotected vm addr 1 ignore;
  check "one window on a read-only page";
  Alcotest.(check int) "read-only page still counts" 2 (gauge ());
  Vmem.set_prot vm (addr + 256) 1 Prot_read_write;
  for _ = 1 to 3 do
    Vmem.with_unprotected vm addr 2 ignore
  done;
  check "windows over a read-only and a read-write page";
  (try Vmem.with_unprotected vm addr 2 (fun () -> failwith "inside") with Failure _ -> ());
  check "a window whose body raises";
  Alcotest.(check int) "one page short of read-write" 1 (gauge ())

(* No address below 0 is reserved, so each one takes the fault path:
   [Access_violation] without a handler, the handler with one. *)
let test_negative_addresses_trap () =
  let vm = Vmem.create ~page_size:256 () in
  let traps f = try f (); false with Vmem.Access_violation _ -> true in
  List.iter
    (fun a ->
      let name = string_of_int a in
      Alcotest.(check bool) ("read_i64 " ^ name) true (traps (fun () -> ignore (Vmem.read_i64 vm a)));
      Alcotest.(check bool) ("read_u8 " ^ name) true (traps (fun () -> ignore (Vmem.read_u8 vm a)));
      Alcotest.(check bool) ("write_u32 " ^ name) true (traps (fun () -> Vmem.write_u32 vm a 1));
      Alcotest.(check bool) ("frame_at " ^ name) true (Vmem.frame_at vm a = None);
      Alcotest.(check bool) ("is_reserved " ^ name) false (Vmem.is_reserved vm a))
    [ -5000; -257; -256; -1; min_int ];
  (* The handler sees the wild address once; an entry flushed from the
     translation cache does not answer for page -1. *)
  let addr = Vmem.reserve vm 1 in
  Vmem.map vm addr (Bytes.make 256 '\000');
  Vmem.set_prot vm addr 1 Prot_read_write;
  let seen = ref [] in
  Vmem.set_fault_handler vm (fun _ ~addr ~access:_ -> seen := addr :: !seen);
  Vmem.write_u8 vm addr 1 (* cached *);
  Vmem.set_prot vm addr 1 Prot_read (* flushed *);
  Alcotest.(check bool) "read of -1 after a flush traps" true
    (traps (fun () -> ignore (Vmem.read_u8 vm (-1))));
  Alcotest.(check bool) "read of -5000 traps" true
    (traps (fun () -> ignore (Vmem.read_i64 vm (-5000))));
  Alcotest.(check (list int)) "handler called per wild access" [ -5000; -1 ] !seen

let test_page_size_power_of_two () =
  let rejects ps =
    match Vmem.create ~page_size:ps () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun ps -> Alcotest.(check bool) (Printf.sprintf "page_size %d rejected" ps) true (rejects ps))
    [ 100; 96; 4095; 4097; 6144; 32; 0; -4096 ];
  List.iter
    (fun ps ->
      let vm = Vmem.create ~page_size:ps () in
      Alcotest.(check int) (Printf.sprintf "page_size %d accepted" ps) ps (Vmem.page_size vm);
      let a = Vmem.reserve vm 2 in
      Alcotest.(check int) "second range starts a page later" (a + (2 * ps)) (Vmem.reserve vm 1))
    [ 64; 256; 512; 4096; 65536 ]


(* ---- Model test: the flat page table against a plain model ---- *)

(* The model keeps, per reserved page number, its protection and, when
   mapped, its own copy of the frame's bytes; and the one-entry TLB as
   a page number. Every operation runs on both, and after each one the
   frames, protections, fault counts, gauges and TLB hits must agree. *)
type mpage = { mutable mprot : Vmem.prot; mutable mframe : Bytes.t option }

type vop =
  | Reserve of int
  | Release of int * int (* page pick, npages *)
  | Set_prot of int * int * int (* page pick, npages, protection *)
  | Map of int
  | Unmap of int
  | Unprotected of int * int * int (* page pick, npages, offset of a write_u8 inside *)
  | Read of int * int * int (* accessor, page pick, offset *)
  | Write of int * int * int * int (* accessor, page pick, offset, value *)

let mps = 64

let gen_vop =
  QCheck.Gen.(
    let pick = int_range (-3) 40 and off = int_range (-10) (mps + 10) in
    frequency
      [ (2, map (fun n -> Reserve (1 + n)) (int_bound 3));
        (1, map2 (fun p n -> Release (p, n)) pick (int_range (-1) 3));
        (3, map3 (fun p n r -> Set_prot (p, n, r)) pick (int_range 0 3) (int_bound 2));
        (3, map (fun p -> Map p) pick);
        (1, map (fun p -> Unmap p) pick);
        (1, map3 (fun p n o -> Unprotected (p, n, o)) pick (int_range 1 2) off);
        (6, map3 (fun a p o -> Read (a, p, o)) (int_bound 4) pick off);
        (6, map3 (fun a (p, o) v -> Write (a, p, o, v)) (int_bound 4) (pair pick off) int) ])

let prop_vmem_model =
  QCheck.Test.make ~name:"vmem agrees with a plain page-table model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) gen_vop))
    (fun ops ->
      Bess_obs.Registry.with_fresh @@ fun () ->
      let vm = Vmem.create ~page_size:mps () in
      let pages : (int, mpage) Hashtbl.t = Hashtbl.create 16 in
      let tlb = ref None and tlb_hits = ref 0 and faults_r = ref 0 and faults_w = ref 0 in
      let protect_calls = ref 0 in
      Vmem.set_fault_handler vm (fun _ ~addr:_ ~access:_ -> ());
      (* Page picks name a reserved page by rank, or a wild address. *)
      let addr_of p =
        if p < 0 then [| -mps; -1; 1 lsl 40 |].(-p - 1)
        else
          match List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) pages []) with
          | [] -> (p + 1) * mps
          | ks -> if p >= 30 then (p + 1000) * mps else List.nth ks (p mod List.length ks) * mps
      in
      let page a = a asr 6 in
      let allows pg access =
        match (Hashtbl.find_opt pages pg, access) with
        | Some { mframe = Some _; mprot = Prot_read_write }, _ -> true
        | Some { mframe = Some _; mprot = Prot_read }, Vmem.Read -> true
        | _ -> false
      in
      (* One page's translation, as the TLB and walk do it: raises as the
         real access does once the handler leaves it unresolved. *)
      let resolve a access =
        let pg = page a in
        if !tlb = Some pg && allows pg access then incr tlb_hits
        else if allows pg access then tlb := Some pg
        else begin
          incr (match access with Vmem.Read -> faults_r | Vmem.Write -> faults_w);
          raise Exit
        end;
        Option.get (Hashtbl.find pages pg).mframe
      in
      let flush () = tlb := None in
      let reserved_range a n =
        n >= 0 && List.for_all (fun i -> Hashtbl.mem pages (page a + i)) (List.init n Fun.id)
      in
      let m_read_bytes a len =
        let out = Bytes.create len in
        let pos = ref 0 in
        while !pos < len do
          let f = resolve (a + !pos) Vmem.Read in
          let o = (a + !pos) land (mps - 1) in
          let c = min (len - !pos) (mps - o) in
          Bytes.blit f o out !pos c;
          pos := !pos + c
        done;
        out
      in
      let m_write_bytes a src =
        let pos = ref 0 and len = Bytes.length src in
        while !pos < len do
          let f = resolve (a + !pos) Vmem.Write in
          let o = (a + !pos) land (mps - 1) in
          let c = min (len - !pos) (mps - o) in
          Bytes.blit src !pos f o c;
          pos := !pos + c
        done
      in
      let width = [| 1; 4; 8; 3; 8 |] in
      (* Run [real] and [model]; both must return equal values, or both
         fault ([Access_violation] / [Exit]) or both refuse. The model
         runs once. *)
      let both what real model =
        let r = try Ok (real ()) with Vmem.Access_violation _ -> Error `Fault | Invalid_argument _ -> Error `Refused in
        let m = try Ok (model ()) with Exit -> Error `Fault | Invalid_argument _ -> Error `Refused in
        if r <> m then QCheck.Test.fail_reportf "%s: vmem and the model disagree" what
      in
      let apply = function
        | Reserve n ->
            let a = Vmem.reserve vm n in
            for i = 0 to n - 1 do
              if Hashtbl.mem pages (page a + i) || page a + i <= 0 then
                QCheck.Test.fail_reportf "reserve returned a page in use";
              Hashtbl.replace pages (page a + i) { mprot = Prot_none; mframe = None }
            done
        | Release (p, n) ->
            let a = addr_of p in
            both "release" (fun () -> Vmem.release vm a n) (fun () ->
                if n <= 0 || not (reserved_range a n) then invalid_arg "release";
                for i = 0 to n - 1 do Hashtbl.remove pages (page a + i) done;
                flush ())
        | Set_prot (p, n, r) ->
            let a = addr_of p and prot = [| Vmem.Prot_none; Prot_read; Prot_read_write |].(r) in
            both "set_prot" (fun () -> Vmem.set_prot vm a n prot) (fun () ->
                if not (reserved_range a n) then invalid_arg "set_prot";
                for i = 0 to n - 1 do (Hashtbl.find pages (page a + i)).mprot <- prot done;
                flush ();
                incr protect_calls)
        | Map p ->
            let a = addr_of p and frame = Bytes.init mps (fun i -> Char.chr ((i * 7) land 0xff)) in
            both "map" (fun () -> Vmem.map vm a frame) (fun () ->
                match Hashtbl.find_opt pages (page a) with
                | None -> invalid_arg "map"
                | Some mp -> mp.mframe <- Some (Bytes.copy frame); flush ())
        | Unmap p ->
            let a = addr_of p in
            both "unmap" (fun () -> Vmem.unmap vm a) (fun () ->
                match Hashtbl.find_opt pages (page a) with
                | None -> invalid_arg "unmap"
                | Some mp -> mp.mframe <- None; mp.mprot <- Prot_none; flush ())
        | Unprotected (p, n, o) ->
            let a = addr_of p in
            both "with_unprotected"
              (fun () -> Vmem.with_unprotected vm a n (fun () -> Vmem.write_u8 vm (a + o) 0x5a))
              (fun () ->
                if not (reserved_range a n) then invalid_arg "with_unprotected";
                let saved = List.init n (fun i -> (Hashtbl.find pages (page a + i)).mprot) in
                List.iteri (fun i _ -> (Hashtbl.find pages (page a + i)).mprot <- Prot_read_write) saved;
                flush ();
                incr protect_calls;
                let restore () =
                  List.iteri (fun i pr -> (Hashtbl.find pages (page a + i)).mprot <- pr) saved;
                  incr protect_calls
                in
                match m_write_bytes (a + o) (Bytes.make 1 '\x5a') with
                | () -> restore ()
                | exception e -> restore (); raise e)
        | Read (k, p, o) ->
            let a = addr_of p + o in
            let w = width.(k) in
            both "read"
              (fun () ->
                match k with
                | 0 -> Bytes.make 1 (Char.chr (Vmem.read_u8 vm a))
                | 1 -> let b = Bytes.create 4 in Bess_util.Codec.set_u32 b 0 (Vmem.read_u32 vm a); b
                | 2 -> let b = Bytes.create 8 in Bess_util.Codec.set_i64 b 0 (Vmem.read_i64 vm a); b
                | _ -> Vmem.read_bytes vm a w)
              (fun () ->
                let b = m_read_bytes a w in
                if k = 2 then Bess_util.Codec.set_i64 b 0 (Bess_util.Codec.get_i64 b 0);
                b)
        | Write (k, p, o, v) ->
            let a = addr_of p + o in
            let w = width.(k) in
            let src = Bytes.create 8 in
            Bess_util.Codec.set_i64 src 0 v;
            both "write"
              (fun () ->
                match k with
                | 0 -> Vmem.write_u8 vm a v
                | 1 -> Vmem.write_u32 vm a v
                | 2 -> Vmem.write_i64 vm a v
                | _ -> Vmem.write_bytes vm a (Bytes.sub src 0 w))
              (fun () -> m_write_bytes a (Bytes.sub src 0 w))
      in
      let gauge name =
        List.assoc name (Bess_obs.Registry.gauges (Bess_obs.Registry.snapshot ()))
      in
      let stat name = Bess_util.Stats.get (Vmem.stats vm) name in
      List.iteri
        (fun step op ->
          apply op;
          let fail what = QCheck.Test.fail_reportf "step %d: %s differs from the model" step what in
          Hashtbl.iter
            (fun pg mp ->
              let a = pg * mps in
              if Vmem.prot_at vm a <> mp.mprot then fail "prot_at";
              match (Vmem.frame_at vm a, mp.mframe) with
              | None, None -> ()
              | Some f, Some m when Bytes.equal f m -> ()
              | _ -> fail "a frame")
            pages;
          List.iter
            (fun a -> if Vmem.is_reserved vm a then fail "an unreserved address")
            [ -1; 0; 1 lsl 40 ];
          let count p = Hashtbl.fold (fun _ mp n -> if p mp then n + 1 else n) pages 0 in
          if gauge "vmem.reserved_pages" <> Hashtbl.length pages then fail "vmem.reserved_pages";
          if gauge "vmem.mapped_pages" <> count (fun mp -> mp.mframe <> None) then fail "vmem.mapped_pages";
          if gauge "vmem.protected_pages" <> count (fun mp -> mp.mprot <> Prot_read_write) then
            fail "vmem.protected_pages";
          if stat "vmem.tlb_hits" <> !tlb_hits then fail "vmem.tlb_hits";
          if stat "vmem.faults.read" <> !faults_r then fail "vmem.faults.read";
          if stat "vmem.faults.write" <> !faults_w then fail "vmem.faults.write";
          if stat "vmem.protect_calls" <> !protect_calls then fail "vmem.protect_calls")
        ops;
      true)

let suite =
  [
    Alcotest.test_case "reserve_release_reuse" `Quick test_reserve_release_reuse;
    Alcotest.test_case "release_coalesces_reuse" `Quick test_release_coalesces_reuse;
    Alcotest.test_case "tlb_hits_and_invalidation" `Quick test_tlb_hits_and_invalidation;
    Alcotest.test_case "null_page_traps" `Quick test_null_page_traps;
    Alcotest.test_case "protection_and_fault_handler" `Quick test_protection_and_fault_handler;
    Alcotest.test_case "unresolved_fault_raises" `Quick test_unresolved_fault_raises;
    Alcotest.test_case "cross_page_access" `Quick test_cross_page_access;
    Alcotest.test_case "with_unprotected" `Quick test_with_unprotected;
    Alcotest.test_case "syscall_accounting" `Quick test_syscall_accounting;
    QCheck_alcotest.to_alcotest prop_rw_roundtrip;
    Alcotest.test_case "protected_pages_gauge" `Quick test_protected_pages_gauge;
    Alcotest.test_case "negative_addresses_trap" `Quick test_negative_addresses_trap;
    Alcotest.test_case "page_size_power_of_two" `Quick test_page_size_power_of_two;
    QCheck_alcotest.to_alcotest prop_vmem_model;
  ]
