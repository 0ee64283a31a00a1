(* bess_cache: slot pool, classic clock, frame-state clock, two-level
   clock (incl. the Figure 4 / section 4.2 scenario), SMT. *)

module Cache = Bess_cache.Cache
module Clock = Bess_cache.Clock
module State_clock = Bess_cache.State_clock
module Two_level = Bess_cache.Two_level
module Smt = Bess_cache.Smt
module Page_id = Bess_cache.Page_id

let pid p = Page_id.make ~area:0 ~page:p

let fill_with c page =
  Cache.load c (pid page) ~fill:(fun b -> Bytes.fill b 0 (Bytes.length b) (Char.chr (page land 0xff)))

let test_load_hit_miss () =
  let c = Cache.create ~nslots:4 ~page_size:64 in
  let s = fill_with c 1 in
  Cache.unpin c s;
  let s2 = fill_with c 1 in
  Cache.unpin c s2;
  Alcotest.(check int) "one miss" 1 (Bess_util.Stats.get (Cache.stats c) "cache.misses");
  Alcotest.(check int) "one hit" 1 (Bess_util.Stats.get (Cache.stats c) "cache.hits");
  Alcotest.(check bool) "same slot" true (s.Cache.index = s2.Cache.index)

let test_eviction_and_writeback () =
  let c = Cache.create ~nslots:2 ~page_size:64 in
  let written = ref [] in
  Cache.set_writeback c (fun page _ ~lsn:_ -> written := page :: !written);
  let s1 = fill_with c 1 in
  Cache.mark_dirty c s1;
  Cache.unpin c s1;
  Cache.unpin c (fill_with c 2);
  Cache.unpin c (fill_with c 3) (* evicts page 1 or 2 *);
  Alcotest.(check int) "resident bounded" 2 (Cache.n_resident c);
  Alcotest.(check bool) "dirty page written back iff evicted" true
    (List.mem (pid 1) !written || Cache.find_slot c (pid 1) <> None)

let test_evict_split_and_dirty_gauge () =
  Bess_obs.Registry.with_fresh (fun () ->
      let c = Cache.create ~nslots:2 ~page_size:64 in
      Cache.register c;
      Cache.set_writeback c (fun _ _ ~lsn:_ -> ());
      let get k = Bess_util.Stats.get (Cache.stats c) k in
      let gauge name =
        List.assoc_opt name (Bess_obs.Registry.gauges (Bess_obs.Registry.snapshot ()))
      in
      let s1 = fill_with c 1 in
      Cache.mark_dirty c s1;
      Cache.mark_dirty c s1;
      Alcotest.(check (option int)) "dirty_pages counts slots, not marks" (Some 1)
        (gauge "cache.dirty_pages");
      Cache.unpin c s1;
      Cache.unpin c (fill_with c 2);
      (* The default chooser sweeps from slot 0: page 1 (dirty) goes
         first, then page 3 (clean) when page 4 arrives. *)
      Cache.unpin c (fill_with c 3);
      Alcotest.(check int) "dirty eviction attributed" 1 (get "cache.evict_dirty");
      Alcotest.(check (option int)) "gauge drops with the eviction" (Some 0)
        (gauge "cache.dirty_pages");
      Cache.unpin c (fill_with c 4);
      Alcotest.(check int) "clean eviction attributed" 1 (get "cache.evict_clean");
      Alcotest.(check int) "evictions still the total" 2 (get "cache.evictions"))

let test_pin_prevents_eviction () =
  let c = Cache.create ~nslots:2 ~page_size:64 in
  let s1 = fill_with c 1 (* stays pinned *) in
  Cache.unpin c (fill_with c 2);
  Cache.unpin c (fill_with c 3);
  Alcotest.(check bool) "pinned page survives" true (Cache.find_slot c (pid 1) <> None);
  Cache.unpin c s1

let test_cache_full_when_all_pinned () =
  let c = Cache.create ~nslots:2 ~page_size:64 in
  let _s1 = fill_with c 1 in
  let _s2 = fill_with c 2 in
  let full = try ignore (fill_with c 3); false with Cache.Cache_full -> true in
  Alcotest.(check bool) "Cache_full raised" true full

let test_classic_clock_second_chance () =
  let c = Cache.create ~nslots:3 ~page_size:64 in
  let clock = Clock.create c in
  let load p =
    let s = fill_with c p in
    Cache.unpin c s;
    s.Cache.index
  in
  let i1 = load 1 in
  ignore (load 2);
  ignore (load 3);
  (* Only page 1 is referenced: the sweep gives it a second chance and
     evicts one of the unreferenced pages instead. *)
  Clock.note_access clock i1;
  ignore (load 4);
  Alcotest.(check bool) "recently used survives" true (Cache.find_slot c (pid 1) <> None);
  Alcotest.(check bool) "an unreferenced page was evicted" true
    (Cache.find_slot c (pid 2) = None || Cache.find_slot c (pid 3) = None)

let test_state_clock_transitions () =
  let protected_frames = ref [] in
  let invalidated = ref [] in
  let sc =
    State_clock.create ~n_vframes:3
      ~protect:(fun v -> protected_frames := v :: !protected_frames)
      ~invalidate:(fun v -> invalidated := v :: !invalidated)
  in
  State_clock.map sc ~vframe:0 ~slot:10;
  State_clock.map sc ~vframe:1 ~slot:11;
  Alcotest.(check bool) "accessible after map" true (State_clock.state sc 0 = Accessible);
  (* First sweep protects both, second picks a victim. *)
  let victim = State_clock.sweep_victim sc ~can_evict:(fun _ -> true) in
  Alcotest.(check bool) "victim found" true (victim <> None);
  let _, slot = Option.get victim in
  Alcotest.(check bool) "victim is a mapped slot" true (slot = 10 || slot = 11);
  Alcotest.(check bool) "protect callback ran" true (!protected_frames <> []);
  Alcotest.(check bool) "invalidate callback ran" true (!invalidated <> [])

let test_state_clock_access_saves_frame () =
  let sc = State_clock.create ~n_vframes:2 ~protect:ignore ~invalidate:ignore in
  State_clock.map sc ~vframe:0 ~slot:0;
  State_clock.map sc ~vframe:1 ~slot:1;
  (* Sweep once: 0 and 1 become protected, then 0 is revisited...
     instead, emulate: protect both via a no-victim sweep by vetoing. *)
  ignore (State_clock.sweep_victim sc ~can_evict:(fun _ -> false));
  Alcotest.(check bool) "both protected" true
    (State_clock.state sc 0 = Protected && State_clock.state sc 1 = Protected);
  (* The application touches frame 0: the fault handler re-grants. *)
  State_clock.access sc ~vframe:0;
  let victim = State_clock.sweep_victim sc ~can_evict:(fun _ -> true) in
  Alcotest.(check bool) "untouched frame chosen" true (Option.get victim |> snd = 1)

(* The two-level clock on the scenario of section 4.2: a slot mapped by
   two processes is not unilaterally replaceable; its counter must reach
   zero through per-process level-1 sweeps. *)
let test_two_level_counters () =
  let tl =
    Two_level.create ~n_procs:2 ~n_vframes:4 ~n_slots:2
      ~protect:(fun ~proc:_ ~vframe:_ -> ())
      ~invalidate:(fun ~proc:_ ~vframe:_ -> ())
  in
  Two_level.map tl ~proc:0 ~vframe:0 ~slot:0;
  Two_level.map tl ~proc:1 ~vframe:0 ~slot:0;
  Two_level.map tl ~proc:1 ~vframe:1 ~slot:1;
  Alcotest.(check int) "slot 0 counted twice" 2 (Two_level.counter tl ~slot:0);
  Alcotest.(check int) "slot 1 counted once" 1 (Two_level.counter tl ~slot:1);
  Two_level.check_invariants tl;
  (* One level-1 sweep per process: accessible -> protected. Counters
     unchanged. *)
  Two_level.level1_sweep tl ~proc:0;
  Two_level.level1_sweep tl ~proc:1;
  Alcotest.(check int) "counters survive protect" 2 (Two_level.counter tl ~slot:0);
  (* Process 0 re-touches its frame; process 1 does not. *)
  Two_level.access tl ~proc:0 ~vframe:0;
  (* Next sweeps: p1's protected frames invalidate, decrementing. *)
  Two_level.level1_sweep tl ~proc:0;
  Two_level.level1_sweep tl ~proc:1;
  Alcotest.(check int) "p1 contribution gone" 1 (Two_level.counter tl ~slot:0);
  Alcotest.(check int) "slot 1 free" 0 (Two_level.counter tl ~slot:1);
  Two_level.check_invariants tl;
  (* Level 2 picks the zero-counter slot. *)
  let victim = Two_level.choose_victim tl ~can_evict:(fun _ -> true) in
  Alcotest.(check (option int)) "slot 1 is the victim" (Some 1) victim

let test_two_level_victim_progress () =
  let tl =
    Two_level.create ~n_procs:1 ~n_vframes:2 ~n_slots:2
      ~protect:(fun ~proc:_ ~vframe:_ -> ())
      ~invalidate:(fun ~proc:_ ~vframe:_ -> ())
  in
  Two_level.map tl ~proc:0 ~vframe:0 ~slot:0;
  Two_level.map tl ~proc:0 ~vframe:1 ~slot:1;
  (* Even with everything hot, repeated rounds force a victim. *)
  let v = Two_level.choose_victim tl ~can_evict:(fun _ -> true) in
  Alcotest.(check bool) "progress guaranteed" true (v <> None);
  Two_level.check_invariants tl

let test_smt_stable_assignment () =
  let smt = Smt.create ~n_vframes:3 in
  let v1 = Option.get (Smt.assign smt (pid 1)) in
  let v2 = Option.get (Smt.assign smt (pid 2)) in
  Alcotest.(check bool) "distinct frames" true (v1 <> v2);
  (* The same page always gets the same frame -- the property that makes
     shared pointers valid for every process. *)
  Alcotest.(check int) "stable" v1 (Option.get (Smt.assign smt (pid 1)));
  ignore (Smt.assign smt (pid 3));
  Alcotest.(check (option int)) "exhausted" None (Smt.assign smt (pid 4));
  Smt.release smt (pid 2);
  let v4 = Option.get (Smt.assign smt (pid 4)) in
  Alcotest.(check int) "freed frame reused" v2 v4

let test_smt_svma_arithmetic () =
  let smt = Smt.create ~n_vframes:8 in
  let v = Option.get (Smt.assign smt (pid 7)) in
  let svma = Smt.svma_of smt ~page_size:4096 ~vframe:v ~offset:123 in
  Alcotest.(check (pair int int)) "decompose" (v, 123) (Smt.decompose ~page_size:4096 svma)

let prop_two_level_invariants =
  QCheck.Test.make ~name:"two-level counter invariant under random ops" ~count:100
    QCheck.(small_list (triple (int_bound 1) (int_bound 3) (int_bound 2)))
    (fun ops ->
      let tl =
        Two_level.create ~n_procs:2 ~n_vframes:4 ~n_slots:3
          ~protect:(fun ~proc:_ ~vframe:_ -> ())
          ~invalidate:(fun ~proc:_ ~vframe:_ -> ())
      in
      List.iter
        (fun (proc, vframe, slot) ->
          match Two_level.state tl ~proc ~vframe with
          | Bess_cache.State_clock.Invalid -> Two_level.map tl ~proc ~vframe ~slot
          | Bess_cache.State_clock.Protected -> Two_level.access tl ~proc ~vframe
          | Bess_cache.State_clock.Accessible -> Two_level.unmap tl ~proc ~vframe)
        ops;
      Two_level.level1_sweep tl ~proc:0;
      Two_level.check_invariants tl;
      true)

(* The WAL rule reads the evicted frame's page LSN: a page updated at
   LSNs a < b, with the log forced through a only, forces the log
   through b when it is written back. The frame's recovery LSN is a, so
   a write-back that read it would leave b volatile. *)
let test_writeback_forces_page_lsn () =
  Bess_obs.Registry.with_fresh (fun () ->
      let areas = Bess_storage.Area_set.create () in
      Bess_storage.Area_set.add areas
        (Bess_storage.Area.create ~page_size:2048 ~extent_order:4 ~id:0 `Memory);
      let store = Bess.Store.create ~cache_slots:1 areas in
      let log = Bess.Store.log store in
      let seg = Option.get (Bess.Store.alloc_segment store ~area:0 ~npages:2) in
      let p = Page_id.make ~area:0 ~page:seg.first_page in
      let q = Page_id.make ~area:0 ~page:(seg.first_page + 1) in
      let update ~prev_lsn ~offset =
        Bess.Store.apply_update store ~txn:1 ~prev_lsn p ~offset ~before:(Bytes.make 4 '\000')
          ~after:(Bytes.of_string "abcd")
      in
      let a = update ~prev_lsn:0 ~offset:0 in
      Bess_wal.Log.flush log ~lsn:a ();
      let b = update ~prev_lsn:a ~offset:8 in
      let slot = Option.get (Cache.find_slot (Bess.Store.cache store) p) in
      Alcotest.(check (pair int int)) "recovery and page LSN" (a, b)
        (slot.Cache.rec_lsn, slot.Cache.page_lsn);
      Alcotest.(check bool) "b not yet durable" true (Bess_wal.Log.flushed_lsn log < b);
      ignore (Bess.Store.read_page store q);
      Alcotest.(check bool) "p evicted" true (Cache.find_slot (Bess.Store.cache store) p = None);
      Alcotest.(check bool) "log forced through b" true (Bess_wal.Log.flushed_lsn log >= b);
      Alcotest.(check int) "unmapped frame's page LSN" 0 (Cache.page_lsn (Bess.Store.cache store) p))

(* A miss that evicts a dirty page allocates nothing in the cache but
   the slot's [Some page] (2 words, which the public [page] field
   needs): no span closure while no collector records, no map cell, no
   option from the lookup. The policy, write-back and fill here
   allocate nothing either. *)
let fill_nothing (_ : Bytes.t) = ()

let test_miss_allocation () =
  let c = Cache.create ~nslots:4 ~page_size:64 in
  let victims = Array.init 4 Option.some in
  let hand = ref 0 in
  Cache.set_victim_chooser c (fun () ->
      hand := (!hand + 1) land 3;
      victims.(!hand));
  let lsns = ref 0 in
  Cache.set_writeback c (fun _ _ ~lsn -> lsns := !lsns + lsn);
  let pages = Array.init 64 pid in
  let n = 10_000 in
  let load i =
    let s = Cache.load c pages.(i land 63) ~fill:fill_nothing in
    Cache.mark_dirty_at c s ~lsn:(i + 1);
    Cache.unpin c s
  in
  for i = 0 to 3 do
    load i
  done;
  let before = Gc.minor_words () in
  for i = 4 to n + 3 do
    load i
  done;
  let per_miss = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "every load a dirty eviction" n
    (Bess_util.Stats.get (Cache.stats c) "cache.evict_dirty");
  if per_miss > 2.01 then Alcotest.failf "%.2f minor words per miss (bound 2)" per_miss

(* The free-slot choice against the full scan it replaced. Random
   load/discard/rekey sequences over caches of up to 64 slots, with some
   loads left pinned, some whose fill raises, and the default victim
   chooser evicting when no slot is free; discards free slots below the
   lowest free one the cache last handed out. Before each miss the model
   predicts the slot: the lowest-index unmapped, unpinned one (the old
   scan), else the chooser's victim; after each step [n_unmapped] must
   equal the unmapped slots counted one by one. *)
type cache_op =
  | Load of int * bool (* page, keep pinned *)
  | Load_fail of int (* page; its fill raises *)
  | Unpin
  | Discard of int
  | Rekey of int * int

let cache_op_gen =
  let open QCheck.Gen in
  let page = int_bound 80 in
  frequency
    [ (6, map2 (fun p pin -> Load (p, pin)) page (map (fun n -> n = 0) (int_bound 3)));
      (1, map (fun p -> Load_fail p) page);
      (2, return Unpin); (3, map (fun p -> Discard p) page);
      (1, map2 (fun a b -> Rekey (a, b)) page page) ]

exception Fill_failed

let show_cache_op = function
  | Load (p, pin) -> Printf.sprintf "Load(%d,%b)" p pin
  | Load_fail p -> Printf.sprintf "Load_fail %d" p
  | Unpin -> "Unpin"
  | Discard p -> Printf.sprintf "Discard %d" p
  | Rekey (a, b) -> Printf.sprintf "Rekey(%d,%d)" a b

let prop_free_slot_matches_scan =
  QCheck.Test.make ~name:"free slot equals the old scan" ~count:300
    (QCheck.make
       ~print:(fun (n, ops) ->
         Printf.sprintf "nslots=%d [%s]" n (String.concat "; " (List.map show_cache_op ops)))
       QCheck.Gen.(pair (1 -- 64) (list_size (0 -- 200) cache_op_gen)))
    (fun (nslots, ops) ->
      let c = Cache.create ~nslots ~page_size:16 in
      let slots () = List.init nslots (Cache.slot c) in
      let first p = List.find_opt p (slots ()) in
      let old_scan () = first (fun s -> s.Cache.page = None && s.Cache.pins = 0) in
      let victim () = first (fun s -> s.Cache.pins = 0) in
      let pinned = ref [] in
      let expected p =
        match Cache.find_slot c (pid p) with
        | Some s -> Some s
        | None -> ( match old_scan () with Some s -> Some s | None -> victim ())
      in
      let step = function
        | Load (p, keep) -> (
            let expected = expected p in
            match Cache.load c (pid p) ~fill:ignore with
            | s ->
                if Option.map (fun e -> e.Cache.index) expected <> Some s.Cache.index then
                  QCheck.Test.fail_reportf "load %d took slot %d" p s.Cache.index;
                if keep then pinned := s :: !pinned else Cache.unpin c s
            | exception Cache.Cache_full ->
                if expected <> None then QCheck.Test.fail_reportf "load %d: spurious Cache_full" p)
        | Load_fail p -> (
            (* A hit never fills; a miss takes the predicted slot, which
               must stay free, and so choosable, after the fill raises. *)
            let expected = expected p in
            let filled = ref None in
            let fill buf =
              filled := List.find_opt (fun s -> s.Cache.bytes == buf) (slots ());
              raise Fill_failed
            in
            match Cache.load c (pid p) ~fill with
            | s -> Cache.unpin c s
            | exception Cache.Cache_full ->
                if expected <> None then QCheck.Test.fail_reportf "load %d: spurious Cache_full" p
            | exception Fill_failed -> (
                match !filled with
                | Some s ->
                    if Option.map (fun e -> e.Cache.index) expected <> Some s.Cache.index then
                      QCheck.Test.fail_reportf "failed load %d filled slot %d" p s.Cache.index;
                    if Option.map (fun e -> e.Cache.index) (old_scan ()) <> Some s.Cache.index then
                      QCheck.Test.fail_reportf "failed load %d left slot %d unchoosable" p
                        s.Cache.index
                | None -> QCheck.Test.fail_reportf "load %d: fill raised outside a slot" p))
        | Unpin -> (
            match !pinned with
            | s :: rest ->
                Cache.unpin c s;
                pinned := rest
            | [] -> ())
        | Discard p -> (
            match Cache.find_slot c (pid p) with
            | Some s when s.Cache.pins = 0 -> Cache.discard c (pid p)
            | _ -> ())
        | Rekey (a, b) ->
            if Cache.find_slot c (pid a) <> None && Cache.find_slot c (pid b) = None then
              Cache.rekey c ~old_page:(pid a) ~new_page:(pid b)
      in
      List.iter
        (fun op ->
          step op;
          let unmapped = List.length (List.filter (fun s -> s.Cache.page = None) (slots ())) in
          if Cache.n_unmapped c <> unmapped then
            QCheck.Test.fail_reportf "after %s: n_unmapped %d, slots %d" (show_cache_op op)
              (Cache.n_unmapped c) unmapped)
        ops;
      true)

(* Section 4.2's claim, exactly: driven as a mapped cache drives it, the
   frame-state clock is the second-chance clock — an accessible frame is
   a set reference bit, a protected one a cleared bit, and a touch on a
   protected frame re-grants it. Over any page stream, with one [load]
   counting each access, both take the same hits and evict the same
   slots in the same order. *)
let prop_state_clock_is_clock =
  QCheck.Test.make ~name:"frame-state clock hits and evicts as the clock" ~count:300
    QCheck.(pair (int_range 1 8) (small_list (int_bound 15)))
    (fun (nslots, stream) ->
      (* Runs [stream] under [policy c], which gives the victim chooser
         and the hook told of each access's slot and whether it was
         resident; returns the hits and the victims in order. *)
      let run policy =
        let c = Cache.create ~nslots ~page_size:16 in
        let choose, note = policy c in
        let victims = ref [] in
        Cache.set_victim_chooser c (fun () ->
            let v = choose () in
            Option.iter (fun i -> victims := i :: !victims) v;
            v);
        List.iter
          (fun p ->
            let resident = Cache.find_slot c (pid p) <> None in
            let s = Cache.load c (pid p) ~fill:ignore in
            note s.Cache.index ~resident;
            Cache.unpin c s)
          stream;
        (Bess_util.Stats.get (Cache.stats c) "cache.hits", List.rev !victims)
      in
      let classic =
        run (fun c ->
            let k = Clock.create c in
            ((fun () -> Clock.choose k), fun i ~resident:_ -> Clock.note_access k i))
      in
      let state =
        run (fun c ->
            let sc = State_clock.create ~n_vframes:nslots ~protect:ignore ~invalidate:ignore in
            ( (fun () ->
                Option.map snd
                  (State_clock.sweep_victim sc ~can_evict:(fun i -> (Cache.slot c i).Cache.pins = 0))),
              fun i ~resident ->
                if resident then State_clock.access sc ~vframe:i
                else State_clock.map sc ~vframe:i ~slot:i ))
      in
      classic = state)

let suite =
  [
    Alcotest.test_case "load_hit_miss" `Quick test_load_hit_miss;
    Alcotest.test_case "eviction_writeback" `Quick test_eviction_and_writeback;
    Alcotest.test_case "evict_split_dirty_gauge" `Quick test_evict_split_and_dirty_gauge;
    Alcotest.test_case "pin_prevents_eviction" `Quick test_pin_prevents_eviction;
    Alcotest.test_case "cache_full" `Quick test_cache_full_when_all_pinned;
    Alcotest.test_case "classic_clock" `Quick test_classic_clock_second_chance;
    Alcotest.test_case "state_clock_transitions" `Quick test_state_clock_transitions;
    Alcotest.test_case "state_clock_access" `Quick test_state_clock_access_saves_frame;
    Alcotest.test_case "two_level_counters" `Quick test_two_level_counters;
    Alcotest.test_case "two_level_progress" `Quick test_two_level_victim_progress;
    Alcotest.test_case "smt_stable" `Quick test_smt_stable_assignment;
    Alcotest.test_case "smt_svma" `Quick test_smt_svma_arithmetic;
    QCheck_alcotest.to_alcotest prop_two_level_invariants;
    QCheck_alcotest.to_alcotest prop_free_slot_matches_scan;
    QCheck_alcotest.to_alcotest prop_state_clock_is_clock;
    Alcotest.test_case "writeback_forces_page_lsn" `Quick test_writeback_forces_page_lsn;
    Alcotest.test_case "miss_allocation" `Quick test_miss_allocation;
  ]
