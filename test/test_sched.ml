(* Bess_sched: the discrete-event heap (tick order, FIFO tie-breaking),
   closed-loop driver determinism (same seed => identical counters),
   Zipf generator sanity, and churn mid-transaction (a client that
   disconnects while holding locks must not leak the lock table). *)

module Sched = Bess_sched.Sched
module Driver = Bess_sched.Driver
module Prng = Bess_util.Prng
module Stats = Bess_util.Stats
module Lock_mgr = Bess_lock.Lock_mgr
module Span = Bess_obs.Span

let next_db = ref 9300

let fresh_db () =
  incr next_db;
  Bess.Db.create_memory ~db_id:!next_db ()

(* A committed working set of [n_pages] data pages (the driver updates
   pages directly through the server, so only data pages matter). *)
let seed_pages db ~n_pages =
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let pages = ref [] in
  let remaining = ref n_pages in
  while !remaining > 0 do
    let n = Stdlib.min 128 !remaining in
    let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:n () in
    let d = seg.Bess.Session.data_disk in
    for i = 0 to n - 1 do
      pages :=
        { Bess_cache.Page_id.area = d.Bess_storage.Seg_addr.area;
          page = d.Bess_storage.Seg_addr.first_page + i }
        :: !pages
    done;
    remaining := !remaining - n
  done;
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  Array.of_list (List.rev !pages)

(* ---- Event heap ---------------------------------------------------------- *)

let test_heap_order () =
  let sched = Sched.create () in
  let now = Span.now_ns () in
  let order = ref [] in
  let ev tag = fun () -> order := tag :: !order in
  (* Mixed due times, including three sharing one tick: equal ticks must
     run in scheduling order (the seq tie-break), not heap order. *)
  Sched.schedule_at sched ~at:(now + 50) (ev "e");
  Sched.schedule_at sched ~at:(now + 10) (ev "a");
  Sched.schedule_at sched ~at:(now + 10) (ev "b");
  Sched.schedule_at sched ~at:(now + 30) (ev "d");
  Sched.schedule_at sched ~at:(now + 10) (ev "c");
  ignore (Sched.run sched);
  Alcotest.(check (list string)) "tick then FIFO order" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !order);
  Alcotest.(check int) "heap drained" 0 (Sched.pending sched)

let test_heap_reentrant_schedule () =
  let sched = Sched.create () in
  let now = Span.now_ns () in
  let order = ref [] in
  let ev tag = fun () -> order := tag :: !order in
  (* An event scheduling at its own tick queues behind everything already
     due at that tick. *)
  Sched.schedule_at sched ~at:(now + 10) (fun () ->
      order := "a" :: !order;
      Sched.schedule_at sched ~at:(now + 10) (ev "late"));
  Sched.schedule_at sched ~at:(now + 10) (ev "b");
  ignore (Sched.run sched);
  Alcotest.(check (list string)) "reentrant schedule runs after queued ties"
    [ "a"; "b"; "late" ] (List.rev !order)

let test_heap_order_random () =
  (* 1000 events with random ticks drain in nondecreasing (at, seq) order
     on two independently built heaps, identically. *)
  let build () =
    let sched = Sched.create () in
    let prng = Prng.create 7 in
    let now = Span.now_ns () in
    let order = ref [] in
    for i = 0 to 999 do
      let at = now + Prng.int prng 64 in
      Sched.schedule_at sched ~at (fun () -> order := (at, i) :: !order)
    done;
    ignore (Sched.run sched);
    List.rev !order
  in
  let a = build () in
  let b = build () in
  let rec sorted = function
    | (a1, s1) :: ((a2, s2) :: _ as rest) ->
        (a1 < a2 || (a1 = a2 && s1 < s2)) && sorted rest
    | _ -> true
  in
  (* Due times are absolute, so compare relative shapes: both runs must
     execute the same scheduling sequence. *)
  Alcotest.(check (list int)) "identical execution order" (List.map snd a) (List.map snd b);
  Alcotest.(check bool) "nondecreasing (tick, seq)" true (sorted a);
  (* While the heap drains, each event schedules up to two more, 0 to 49
     ns after its own tick (so ties with queued events abound), until
     4000 have been scheduled. A sorted set of (tick, seq) run the same
     way gives the reference order. *)
  let mix = Bess_util.Int_tbl.mix in
  let spawn id = if id >= 4000 then [] else List.init (mix id mod 3) (fun j -> mix ((8 * id) + j) mod 50) in
  let now = Span.now_ns () in
  let initial i = now + (mix (i + 100_000) mod 64) in
  let sched = Sched.create () in
  let ran = ref [] and next = ref 0 in
  let rec add at =
    let id = !next in
    incr next;
    Sched.schedule_at sched ~at (fun () ->
        ran := (at, id) :: !ran;
        List.iter (fun d -> add (at + d)) (spawn id))
  in
  for i = 0 to 999 do
    add (initial i)
  done;
  ignore (Sched.run sched);
  let module Q = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let q = ref Q.empty and next = ref 0 and expected = ref [] in
  let add at =
    q := Q.add (at, !next) !q;
    incr next
  in
  for i = 0 to 999 do
    add (initial i)
  done;
  while not (Q.is_empty !q) do
    let ((at, id) as e) = Q.min_elt !q in
    q := Q.remove e !q;
    expected := e :: !expected;
    List.iter (fun d -> add (at + d)) (spawn id)
  done;
  Alcotest.(check bool) "events scheduled while draining" true (List.length !ran > 2000);
  Alcotest.(check (list (pair int int))) "drain order with reentrant schedules" (List.rev !expected)
    (List.rev !ran)

(* ---- Driver determinism -------------------------------------------------- *)

let driver_cfg =
  { Driver.default with
    n_clients = 40;
    txns_per_client = 15;
    zipf_theta = 1.1;
    hot_fraction = 0.2;
    hot_pages = 4;
    think_ns = 50_000;
    churn = 0.05;
    reconnect_ns = 100_000;
    seed = 99;
  }

let run_driver cfg =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  Bess.Server.set_detection server `Timeout;
  let pages = seed_pages db ~n_pages:32 in
  let sched = Sched.create () in
  let r = Driver.run ~sched server ~pages cfg in
  (r, server, Stats.to_list (Sched.stats sched))

let test_same_seed_identical () =
  let r1, _, counters1 = run_driver driver_cfg in
  let r2, _, counters2 = run_driver driver_cfg in
  Alcotest.(check bool) "some commits happened" true (r1.Driver.r_commits > 0);
  Alcotest.(check bool) "identical results" true (r1 = r2);
  Alcotest.(check (list (pair string int))) "identical sched counters" counters1 counters2

let test_different_seed_differs () =
  let r1, _, _ = run_driver driver_cfg in
  let r2, _, _ = run_driver { driver_cfg with seed = 100 } in
  (* Commit counts could coincide, so compare the whole result record;
     40 churning clients over a skewed working set make a collision
     across every counter and latency percentile implausible. *)
  Alcotest.(check bool) "different seed diverges" true (r1 <> r2)

(* ---- Zipf generator sanity ----------------------------------------------- *)

let test_zipf_skew () =
  let prng = Prng.create 5 in
  let n = 100 in
  let sample = Prng.zipf prng ~n ~theta:1.2 in
  let draws = 20_000 in
  let freq = Array.make n 0 in
  for _ = 1 to draws do
    let r = sample () in
    freq.(r) <- freq.(r) + 1
  done;
  let share lo hi =
    let s = ref 0 in
    for i = lo to hi do
      s := !s + freq.(i)
    done;
    float_of_int !s /. float_of_int draws
  in
  (* theta=1.2, n=100: p(rank 0) = 1/H ~ 0.217, top-10 share ~ 0.55. *)
  let top1 = share 0 0 in
  Alcotest.(check bool)
    (Printf.sprintf "rank-0 share %.3f in [0.15, 0.30]" top1)
    true
    (top1 > 0.15 && top1 < 0.30);
  Alcotest.(check bool) "top-10 majority" true (share 0 9 > 0.45);
  Alcotest.(check bool) "head beats tail" true (freq.(0) > 4 * freq.(50));
  Alcotest.(check bool) "tail still sampled" true (share 50 99 > 0.02)

(* ---- Churn mid-transaction ----------------------------------------------- *)

let test_churn_holding_locks_no_leak () =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  Bess.Server.set_detection server `Timeout;
  let pages = seed_pages db ~n_pages:8 in
  let sched = Sched.create () in
  let cfg =
    { Driver.default with
      n_clients = 30;
      txns_per_client = 20;
      hot_fraction = 0.5;
      hot_pages = 2;
      think_ns = 20_000;
      churn = 0.25;
      reconnect_ns = 50_000;
      seed = 7;
    }
  in
  let r = Driver.run ~sched server ~pages cfg in
  let st = Sched.stats sched in
  Alcotest.(check bool) "clients churned" true (r.Driver.r_disconnects > 0);
  Alcotest.(check bool) "some churn hit mid-transaction" true
    (Stats.get st "sched.churn_holding_locks" > 0);
  Alcotest.(check bool) "work still completed" true (r.Driver.r_commits > 0);
  (* The chaos invariant: once every client is done, nothing may remain
     in the lock table — disconnect-holding-locks included. *)
  Alcotest.(check int) "no lock leak" 0 (Lock_mgr.n_locks (Bess.Server.locks server));
  Alcotest.(check int) "no pending events" 0 (Sched.pending sched)

(* ---- Convoy regression: park/wake ------------------------------------------ *)

(* Each contended acquisition parks once and is resumed by its wake:
   no deadline fires, so scheduled events stay O(contended
   acquisitions), not O(retries x waiters). *)
let test_handoff_kills_retry_convoy () =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  Bess.Server.set_detection server `Timeout;
  let pages = seed_pages db ~n_pages:8 in
  let sched = Sched.create () in
  let cfg =
    { Driver.default with
      n_clients = 48;
      txns_per_client = 20;
      hot_fraction = 0.6;
      hot_pages = 2;
      think_ns = 20_000;
      seed = 11;
    }
  in
  ignore (Driver.run ~sched server ~pages cfg);
  Alcotest.(check int) "no lock leak" 0 (Lock_mgr.n_locks (Bess.Server.locks server));
  let st = Sched.stats sched in
  let parks = Stats.get st "sched.lock_parks" in
  Alcotest.(check bool) "workload is contended" true (parks > 0);
  Alcotest.(check int) "every park ends in its wake" parks (Stats.get st "sched.lock_wakeups")

(* A client parked behind a lock that is held past the budget gives up
   at its one deadline: exactly [timeout_ns] of simulated time after it
   parked, with a single re-poll. *)
let test_parked_client_gives_up_at_deadline () =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  Bess.Server.set_detection server `Timeout;
  let pages = seed_pages db ~n_pages:1 in
  let holder = Bess.Server.begin_txn server ~client:1 in
  let r0 = Lock_mgr.page_resource ~area:pages.(0).area ~page:pages.(0).page in
  Alcotest.(check bool) "holder takes the page" true
    (Bess.Server.lock server ~txn:holder r0 Bess_lock.Lock_mode.X = `Granted);
  let sched = Sched.create () in
  let r =
    Driver.run ~sched server ~pages
      { Driver.default with n_clients = 1; txns_per_client = 1; think_ns = 0 }
  in
  let st = Sched.stats sched in
  Alcotest.(check int) "parked once" 1 (Stats.get st "sched.lock_parks");
  Alcotest.(check int) "gave up" 1 r.Driver.r_give_ups;
  Alcotest.(check int) "no abort counted" 0 r.Driver.r_aborts;
  Alcotest.(check int) "park, deadline, and nothing else" 2 r.Driver.r_events;
  Alcotest.(check int) "at exactly the deadline" Lock_mgr.timeout_ns r.Driver.r_sim_ns;
  Alcotest.(check int) "the lock manager timed it out" 1
    (Stats.get (Lock_mgr.stats (Bess.Server.locks server)) "lock.timeouts");
  Alcotest.(check (list int)) "the holder keeps its lock, nobody queues" []
    (List.map fst (Lock_mgr.waiters (Bess.Server.locks server) r0));
  Bess.Server.abort_client server ~txn:holder;
  Alcotest.(check int) "no lock leak" 0 (Lock_mgr.n_locks (Bess.Server.locks server))

(* Words allocated straight on the major heap (blocks too large for the
   minor heap, such as a 4 KB page) since the program started. *)
let direct_major_words () =
  let s = Gc.quick_stat () in
  s.major_words -. s.promoted_words

(* A driver commit copies only its 8-byte before-image out of the cached
   page: on a server whose cache holds a quarter of the working set,
   direct major-heap words per commit stay far below one page (513
   words). *)
let test_commit_major_allocation () =
  let max_words_per_commit = 128.0 in
  incr next_db;
  let db = Bess.Db.create_memory ~cache_slots:64 ~db_id:!next_db () in
  let server = Bess.Db.server db in
  let pages = seed_pages db ~n_pages:256 in
  let run ~seed =
    Driver.run ~sched:(Sched.create ()) server ~pages
      { Driver.default with n_clients = 16; txns_per_client = 100; seed }
  in
  ignore (run ~seed:1);
  let w0 = direct_major_words () in
  let r = run ~seed:2 in
  let per_commit = (direct_major_words () -. w0) /. float_of_int r.r_commits in
  Alcotest.(check bool) "the cache spilled" true
    (Stats.get (Bess_cache.Cache.stats (Bess.Store.cache (Bess.Server.store server)))
       "cache.evict_dirty" > 0);
  if per_commit > max_words_per_commit then
    Alcotest.failf "%.0f direct major words per commit, bound %.0f" per_commit
      max_words_per_commit

(* One client transaction as [Driver] runs it, on one cached page:
   begin, X-lock, read the before-image, commit, await the ticket. The
   server's per-transaction state is int-keyed and its lock and callback
   tables are keyed by packed resources, so the cycle's minor words stay
   under a tight bound (they are deterministic): 328 measured, 350 with
   resource records in hash tables. *)
let test_commit_cycle_allocation () =
  let max_words = 360.0 in
  let db = fresh_db () in
  let server = Bess.Db.server db in
  let pid = (seed_pages db ~n_pages:1).(0) in
  let r = Lock_mgr.page_resource ~area:pid.area ~page:pid.page in
  Bess.Server.connect_client server ~client:1 ~sink:(fun _ _ -> `Dropped);
  let before = Bytes.create 8 and after = Bytes.make 8 'x' in
  let cycle () =
    let txn = Bess.Server.begin_txn server ~client:1 in
    ignore (Bess.Server.lock server ~txn r Bess_lock.Lock_mode.X);
    Bess.Server.read_into server pid ~off:0 before ~dst_off:0 ~len:8;
    match
      Bess.Server.commit_client_begin server ~txn
        ~updates:[ { Bess.Server.page = pid; offset = 0; before; after } ]
    with
    | `Committed ticket -> Bess.Server.await_commit server ticket
    | `Lock_violation -> Alcotest.fail "lock violation"
  in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let n = 5_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    cycle ()
  done;
  let per_cycle = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_cycle > max_words then
    Alcotest.failf "%.1f minor words per client transaction (bound %.0f)" per_cycle max_words

let suite =
  [
    Alcotest.test_case "heap_order" `Quick test_heap_order;
    Alcotest.test_case "heap_reentrant_schedule" `Quick test_heap_reentrant_schedule;
    Alcotest.test_case "heap_order_random" `Quick test_heap_order_random;
    Alcotest.test_case "same_seed_identical" `Quick test_same_seed_identical;
    Alcotest.test_case "different_seed_differs" `Quick test_different_seed_differs;
    Alcotest.test_case "zipf_skew" `Quick test_zipf_skew;
    Alcotest.test_case "churn_holding_locks_no_leak" `Quick test_churn_holding_locks_no_leak;
    Alcotest.test_case "handoff_kills_retry_convoy" `Quick test_handoff_kills_retry_convoy;
    Alcotest.test_case "parked_client_gives_up_at_deadline" `Quick
      test_parked_client_gives_up_at_deadline;
    Alcotest.test_case "commit_major_allocation" `Quick test_commit_major_allocation;
    Alcotest.test_case "commit_cycle_allocation" `Quick test_commit_cycle_allocation;
  ]
