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
  ]
