(* bess_lock: mode algebra, 2PL grant/block, deadlock detection (graph
   and timeout), callback registry. *)

module Lock_mode = Bess_lock.Lock_mode
module Lock_mgr = Bess_lock.Lock_mgr
module Callback = Bess_lock.Callback
module Span = Bess_obs.Span

let r1 = Lock_mgr.page_resource ~area:1 ~page:1
let r2 = Lock_mgr.page_resource ~area:1 ~page:2
let obj1 = Lock_mgr.object_resource ~db:1 ~slot:1

let test_mode_algebra () =
  let open Lock_mode in
  (* Compatibility matrix spot checks. *)
  Alcotest.(check bool) "S/S" true (compatible S S);
  Alcotest.(check bool) "S/X" false (compatible S X);
  Alcotest.(check bool) "IS/IX" true (compatible IS IX);
  Alcotest.(check bool) "IX/IX" true (compatible IX IX);
  Alcotest.(check bool) "SIX/IS" true (compatible SIX IS);
  Alcotest.(check bool) "SIX/IX" false (compatible SIX IX);
  Alcotest.(check bool) "X/anything" false (List.exists (compatible X) all);
  (* Symmetry. *)
  List.iter
    (fun a ->
      List.iter
        (fun b -> Alcotest.(check bool) "symmetric" (compatible a b) (compatible b a))
        all)
    all;
  (* Supremum. *)
  Alcotest.(check bool) "S+IX=SIX" true (sup S IX = SIX);
  Alcotest.(check bool) "covers" true (covers X S && covers SIX IS && not (covers S X))

let test_grant_block_release () =
  let m = Lock_mgr.create () in
  Alcotest.(check bool) "t1 gets S" true (Lock_mgr.acquire m ~txn:1 r1 S = `Granted);
  Alcotest.(check bool) "t2 shares S" true (Lock_mgr.acquire m ~txn:2 r1 S = `Granted);
  Alcotest.(check bool) "t3 X blocks" true (Lock_mgr.acquire m ~txn:3 r1 X = `Blocked);
  let woken = Lock_mgr.release_all m ~txn:1 in
  ignore woken;
  Alcotest.(check bool) "still blocked (t2 holds)" true (Lock_mgr.acquire m ~txn:3 r1 X = `Blocked);
  ignore (Lock_mgr.release_all m ~txn:2);
  Alcotest.(check bool) "granted after both release" true (Lock_mgr.acquire m ~txn:3 r1 X = `Granted)

let test_upgrade () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.S);
  Alcotest.(check bool) "upgrade S->X when alone" true
    (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.X = `Granted);
  Alcotest.(check bool) "holds X" true (Lock_mgr.holds m ~txn:1 r1 Lock_mode.X)

let test_fifo_no_starvation () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.S);
  (* A writer queues... *)
  Alcotest.(check bool) "writer blocks" true (Lock_mgr.acquire m ~txn:2 r1 Lock_mode.X = `Blocked);
  (* ...and a later reader must not jump it. *)
  Alcotest.(check bool) "later reader waits behind writer" true
    (Lock_mgr.acquire m ~txn:3 r1 Lock_mode.S = `Blocked)

let test_deadlock_graph () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.X);
  ignore (Lock_mgr.acquire m ~txn:2 r2 Lock_mode.X);
  Alcotest.(check bool) "t1 waits for r2" true (Lock_mgr.acquire m ~txn:1 r2 Lock_mode.X = `Blocked);
  (* t2 -> r1 completes the cycle. *)
  Alcotest.(check bool) "cycle detected" true (Lock_mgr.acquire m ~txn:2 r1 Lock_mode.X = `Deadlock)

let test_deadlock_timeout () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire ~detect:`Timeout m ~txn:1 r1 Lock_mode.X);
  Alcotest.(check bool) "blocks initially" true
    (Lock_mgr.acquire ~detect:`Timeout m ~txn:2 r1 Lock_mode.X = `Blocked);
  (* Let the simulated clock run to the deadline. *)
  Span.advance_ns Lock_mgr.timeout_ns;
  (* A timeout is reported as `Timeout (suspicion), distinct from the
     proven-cycle `Deadlock verdict, and counted separately. *)
  Alcotest.(check bool) "times out" true
    (Lock_mgr.acquire ~detect:`Timeout m ~txn:2 r1 Lock_mode.X = `Timeout);
  Alcotest.(check int) "counted as timeout, not deadlock" 1
    (Bess_util.Stats.get (Lock_mgr.stats m) "lock.timeouts");
  Alcotest.(check int) "no deadlock counted" 0
    (Bess_util.Stats.get (Lock_mgr.stats m) "lock.deadlocks")

let test_object_and_page_namespaces_disjoint () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.X);
  Alcotest.(check bool) "object lock independent" true
    (Lock_mgr.acquire m ~txn:2 obj1 Lock_mode.X = `Granted)

let test_regrant_is_cheap () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.X);
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.X);
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.S) (* covered by X *);
  Alcotest.(check int) "regrants counted" 2
    (Bess_util.Stats.get (Lock_mgr.stats m) "lock.regrants")

(* Regression: a transaction that aborts while queued on a resource it
   never acquired (a "ghost waiter") is purged by release_all -- but the
   transactions queued *behind* it must land on the wake list. t1 holds S;
   t2's X request queues; t3's S request queues behind the writer (FIFO).
   When t2 aborts, t3 is now head of the queue and compatible with t1's S:
   without a retry signal it stalls forever, because t2 held nothing on r1
   and so no future release on r1 is coming. *)
let test_ghost_waiter_followers_woken () =
  let m = Lock_mgr.create () in
  Alcotest.(check bool) "t1 holds S" true (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.S = `Granted);
  Alcotest.(check bool) "t2 X queues" true (Lock_mgr.acquire m ~txn:2 r1 Lock_mode.X = `Blocked);
  Alcotest.(check bool) "t3 S queues behind writer" true
    (Lock_mgr.acquire m ~txn:3 r1 Lock_mode.S = `Blocked);
  (* t2 aborts holding nothing: only the ghost-purge pass touches r1. *)
  let woken = Lock_mgr.release_all m ~txn:2 in
  Alcotest.(check bool) "t3 is on the wake list" true (List.mem 3 woken);
  Alcotest.(check bool) "t3's retry is granted" true
    (Lock_mgr.acquire m ~txn:3 r1 Lock_mode.S = `Granted)

(* ---- Grant handoff (wake-on-release) ---- *)

(* A release transfers the lock to the FIFO head in place: the waiter
   holds X before any re-poll, the wake hook names it, and the transfer
   is counted as a handoff. *)
let test_handoff_grants_in_place () =
  let m = Lock_mgr.create () in
  let wakes = ref [] in
  Lock_mgr.set_wake_hook m (Some (fun ~txn -> wakes := txn :: !wakes));
  Alcotest.(check bool) "t1 X" true (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.X = `Granted);
  Alcotest.(check bool) "t2 queues" true (Lock_mgr.acquire m ~txn:2 r1 Lock_mode.X = `Blocked);
  Alcotest.(check bool) "t3 queues" true (Lock_mgr.acquire m ~txn:3 r1 Lock_mode.X = `Blocked);
  let granted = Lock_mgr.release_all m ~txn:1 in
  Alcotest.(check (list int)) "t2 granted in place" [ 2 ] granted;
  Alcotest.(check (list int)) "wake hook fired for t2" [ 2 ] !wakes;
  Alcotest.(check bool) "t2 already holds X" true (Lock_mgr.holds m ~txn:2 r1 Lock_mode.X);
  Alcotest.(check bool) "t3 still waiting" true (not (Lock_mgr.holds m ~txn:3 r1 Lock_mode.X));
  (* The woken client's own acquire is now a regrant, not a re-queue. *)
  Alcotest.(check bool) "t2 re-poll regrants" true
    (Lock_mgr.acquire m ~txn:2 r1 Lock_mode.X = `Granted);
  Alcotest.(check int) "one handoff" 1 (Bess_util.Stats.get (Lock_mgr.stats m) "lock.handoffs");
  let granted = Lock_mgr.release_all m ~txn:2 in
  Alcotest.(check (list int)) "then t3" [ 3 ] granted;
  Alcotest.(check (list int)) "hook order is grant order" [ 2; 3 ] (List.rev !wakes)

(* The maximal compatible FIFO prefix is granted — both readers share,
   the writer queued behind them stays barred (no starvation, no barge). *)
let test_handoff_shared_prefix () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.X);
  Alcotest.(check bool) "t2 S queues" true (Lock_mgr.acquire m ~txn:2 r1 Lock_mode.S = `Blocked);
  Alcotest.(check bool) "t3 S queues" true (Lock_mgr.acquire m ~txn:3 r1 Lock_mode.S = `Blocked);
  Alcotest.(check bool) "t4 X queues" true (Lock_mgr.acquire m ~txn:4 r1 Lock_mode.X = `Blocked);
  let granted = Lock_mgr.release_all m ~txn:1 in
  Alcotest.(check (list int)) "both readers granted" [ 2; 3 ] (List.sort compare granted);
  Alcotest.(check bool) "writer still barred" true
    (Lock_mgr.acquire m ~txn:4 r1 Lock_mode.X = `Blocked);
  ignore (Lock_mgr.release_all m ~txn:2);
  let granted = Lock_mgr.release_all m ~txn:3 in
  Alcotest.(check (list int)) "writer granted once readers drain" [ 4 ] granted

(* The grant filter vetoes a handoff (a cached-copy conflict the server
   must resolve first): the waiter keeps its FIFO position but is woken
   at once — its re-poll, after the veto lifts, still gets the lock
   without waiting for its deadline. *)
let test_grant_filter_veto () =
  let m = Lock_mgr.create () in
  let veto = ref true in
  let asked = ref [] in
  let wakes = ref [] in
  Lock_mgr.set_wake_hook m (Some (fun ~txn -> wakes := txn :: !wakes));
  Lock_mgr.set_grant_filter m
    (Some (fun ~txn _r _mode -> asked := txn :: !asked; not !veto));
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.X);
  ignore (Lock_mgr.acquire m ~txn:2 r1 Lock_mode.X);
  let granted = Lock_mgr.release_all m ~txn:1 in
  Alcotest.(check (list int)) "veto: nothing granted" [] granted;
  Alcotest.(check (list int)) "filter consulted for t2" [ 2 ] !asked;
  Alcotest.(check int) "still queued" 1 (Lock_mgr.n_waiters m);
  Alcotest.(check (list int)) "vetoed waiter woken for its own re-poll" [ 2 ] !wakes;
  Alcotest.(check int) "veto wake counted" 1
    (Bess_util.Stats.get (Lock_mgr.stats m) "lock.veto_wakes");
  veto := false;
  Alcotest.(check bool) "re-poll succeeds once veto lifts" true
    (Lock_mgr.acquire m ~txn:2 r1 Lock_mode.X = `Granted)

(* No starvation: in an N-deep X convoy drained release by release, every
   handoff grant happens at the release itself — the wake-to-grant dead
   time is identically zero ticks for all N-1 transfers. *)
let test_wake_to_grant_bounded () =
  let n = 20 in
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.X);
  for i = 2 to n do
    Alcotest.(check bool) "queues" true (Lock_mgr.acquire m ~txn:i r1 Lock_mode.X = `Blocked)
  done;
  for i = 1 to n - 1 do
    match Lock_mgr.release_all m ~txn:i with
    | [ next ] -> Alcotest.(check int) "FIFO successor" (i + 1) next
    | other -> Alcotest.failf "expected one grant, got %d" (List.length other)
  done;
  ignore (Lock_mgr.release_all m ~txn:n);
  Alcotest.(check int) "all handoffs" (n - 1)
    (Bess_util.Stats.get (Lock_mgr.stats m) "lock.handoffs");
  (match Bess_util.Stats.find_histogram (Lock_mgr.stats m) "lock.wake_to_grant_ns" with
  | None -> Alcotest.fail "wake_to_grant_ns histogram missing"
  | Some h ->
      Alcotest.(check int) "every transfer observed" (n - 1) (Bess_util.Histogram.count h);
      Alcotest.(check int) "zero dead ticks end to end" 0 (Bess_util.Histogram.sum h));
  Alcotest.(check int) "no leaked entries" 0 (Lock_mgr.n_locks m)

(* A timeout is simulated time spent queued, not lock-table traffic:
   any number of unrelated acquires leave the waiter's verdict alone,
   and it turns into [`Timeout] at exactly [timeout_ns] after enqueue. *)
let test_timeout_on_the_simulated_clock () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire ~detect:`Timeout m ~txn:1 r1 Lock_mode.X);
  Alcotest.(check bool) "queues" true
    (Lock_mgr.acquire ~detect:`Timeout m ~txn:2 r1 Lock_mode.X = `Blocked);
  for i = 0 to 1_000 do
    let r = Lock_mgr.page_resource ~area:2 ~page:i in
    ignore (Lock_mgr.acquire ~detect:`Timeout m ~txn:(100 + i) r Lock_mode.X)
  done;
  Alcotest.(check bool) "unrelated traffic does not time the waiter out" true
    (Lock_mgr.acquire ~detect:`Timeout m ~txn:2 r1 Lock_mode.X = `Blocked);
  Span.advance_ns (Lock_mgr.timeout_ns - 1);
  Alcotest.(check bool) "still inside the budget one ns before" true
    (Lock_mgr.acquire ~detect:`Timeout m ~txn:2 r1 Lock_mode.X = `Blocked);
  Span.advance_ns 1;
  Alcotest.(check bool) "times out at the deadline" true
    (Lock_mgr.acquire ~detect:`Timeout m ~txn:2 r1 Lock_mode.X = `Timeout);
  Alcotest.(check (list (pair int string))) "the timed-out waiter left the queue" []
    (List.map (fun (t, md) -> (t, Lock_mode.to_string md)) (Lock_mgr.waiters m r1))

(* The lock.waiters gauge is maintained incrementally, not by folding
   the table: the count must track enqueues, handoffs and purges. *)
let test_waiters_count_incremental () =
  let m = Lock_mgr.create () in
  Alcotest.(check int) "empty" 0 (Lock_mgr.n_waiters m);
  ignore (Lock_mgr.acquire m ~txn:1 r1 Lock_mode.X);
  ignore (Lock_mgr.acquire m ~txn:1 r2 Lock_mode.X);
  ignore (Lock_mgr.acquire m ~txn:2 r1 Lock_mode.X);
  ignore (Lock_mgr.acquire m ~txn:3 r1 Lock_mode.X);
  ignore (Lock_mgr.acquire m ~txn:3 r2 Lock_mode.X);
  Alcotest.(check int) "three live waiters" 3 (Lock_mgr.n_waiters m);
  (* t1's release hands r1 to t2 and r2 to t3: two waiters drain. *)
  ignore (Lock_mgr.release_all m ~txn:1);
  Alcotest.(check int) "handoffs drain the count" 1 (Lock_mgr.n_waiters m);
  ignore (Lock_mgr.release_all m ~txn:2);
  ignore (Lock_mgr.release_all m ~txn:3);
  Alcotest.(check int) "all drained" 0 (Lock_mgr.n_waiters m)

(* Fairness under random interleavings: X-only traffic on one resource
   against a reference model (holder + FIFO queue). Handoff grants must
   occur exactly in enqueue order, and the table must agree with the
   model about who holds the lock after every step. *)
let prop_handoff_fifo =
  QCheck.Test.make ~name:"handoff grants respect FIFO enqueue order" ~count:200
    QCheck.(small_list (pair (int_bound 4) bool))
    (fun ops ->
      let m = Lock_mgr.create () in
      let grants = ref [] in
      Lock_mgr.set_wake_hook m (Some (fun ~txn -> grants := txn :: !grants));
      (* Model: [holder] plus FIFO [queue]; a release drains the head. *)
      let holder = ref None and queue = ref [] and expected = ref [] in
      let model_grant_head () =
        match !queue with
        | [] -> ()
        | next :: rest ->
            queue := rest;
            holder := Some next;
            expected := next :: !expected
      in
      List.iter
        (fun (txn, release) ->
          let txn = txn + 1 in
          if release then begin
            ignore (Lock_mgr.release_all m ~txn);
            if !holder = Some txn then begin
              holder := None;
              model_grant_head ()
            end
            else queue := List.filter (fun t -> t <> txn) !queue
          end
          else if !holder <> Some txn && not (List.mem txn !queue) then begin
            match Lock_mgr.acquire m ~txn r1 Lock_mode.X with
            | `Granted ->
                if !holder = None && !queue = [] then holder := Some txn
                else QCheck.Test.fail_report "granted against model"
            | `Blocked -> queue := !queue @ [ txn ]
            | `Deadlock | `Timeout -> QCheck.Test.fail_report "unexpected verdict"
          end)
        ops;
      (* Table and model agree on the holder... *)
      (match !holder with
      | Some h ->
          if not (Lock_mgr.holds m ~txn:h r1 Lock_mode.X) then
            QCheck.Test.fail_report "model holder does not hold in table"
      | None -> ());
      (* ...and every in-place grant happened in FIFO order. *)
      List.rev !grants = List.rev !expected)

let test_callback_registry () =
  let cb = Callback.create () in
  (* Two clients cache the page in S. *)
  Alcotest.(check bool) "c1 S" true (Callback.request cb ~client:1 r1 Lock_mode.S = `Granted);
  Alcotest.(check bool) "c2 S" true (Callback.request cb ~client:2 r1 Lock_mode.S = `Granted);
  (* c3 wants X: both must be called back. *)
  (match Callback.request cb ~client:3 r1 Lock_mode.X with
  | `Callback_needed clients ->
      Alcotest.(check (list int)) "both called back" [ 1; 2 ] (List.sort compare clients)
  | `Granted -> Alcotest.fail "should need callbacks");
  Callback.dropped cb ~client:1 r1;
  Callback.dropped cb ~client:2 r1;
  Alcotest.(check bool) "granted after drops" true
    (Callback.request cb ~client:3 r1 Lock_mode.X = `Granted);
  (* Own cached copy never conflicts with oneself. *)
  Alcotest.(check bool) "self upgrade fine" true
    (Callback.request cb ~client:3 r1 Lock_mode.X = `Granted)

let test_callback_downgrade_and_forget () =
  let cb = Callback.create () in
  ignore (Callback.request cb ~client:1 r1 Bess_lock.Lock_mode.X);
  Callback.downgraded cb ~client:1 r1 Bess_lock.Lock_mode.S;
  Alcotest.(check bool) "S sharers fine after downgrade" true
    (Callback.request cb ~client:2 r1 Bess_lock.Lock_mode.S = `Granted);
  Callback.forget_client cb ~client:1;
  Alcotest.(check bool) "X after forget" true
    (Callback.request cb ~client:2 r1 Bess_lock.Lock_mode.X = `Granted)

let prop_sup_is_lub =
  QCheck.Test.make ~name:"sup is an upper bound" ~count:100
    QCheck.(pair (oneofl Lock_mode.all) (oneofl Lock_mode.all))
    (fun (a, b) ->
      let s = Lock_mode.sup a b in
      Lock_mode.covers s a && Lock_mode.covers s b)

let prop_release_unblocks =
  QCheck.Test.make ~name:"after release_all the resource is grantable" ~count:100
    QCheck.(oneofl Lock_mode.all)
    (fun mode ->
      let m = Lock_mgr.create () in
      ignore (Lock_mgr.acquire m ~txn:1 r1 mode);
      ignore (Lock_mgr.release_all m ~txn:1);
      Lock_mgr.acquire m ~txn:2 r1 Lock_mode.X = `Granted)

(* Random schedules: after any sequence of acquire/release_all, no two
   transactions hold incompatible modes on the same resource, and every
   waiter conflicts with someone. *)
let prop_no_incompatible_grants =
  QCheck.Test.make ~name:"2PL safety under random schedules" ~count:150
    QCheck.(small_list (quad (int_bound 4) (int_bound 3) (oneofl Lock_mode.all) bool))
    (fun ops ->
      let m = Lock_mgr.create () in
      let resources = [| r1; r2; obj1; Lock_mgr.page_resource ~area:9 ~page:9 |] in
      List.iter
        (fun (txn, r, mode, release) ->
          let txn = txn + 1 in
          if release then ignore (Lock_mgr.release_all m ~txn)
          else ignore (Lock_mgr.acquire m ~txn resources.(r) mode))
        ops;
      (* safety: granted modes pairwise compatible per resource *)
      Array.for_all
        (fun r ->
          let holders =
            List.filter_map
              (fun txn -> Option.map (fun mode -> (txn, mode)) (Lock_mgr.held_mode m ~txn r))
              [ 1; 2; 3; 4; 5 ]
          in
          List.for_all
            (fun (t1, m1) ->
              List.for_all
                (fun (t2, m2) -> t1 = t2 || Lock_mode.compatible m1 m2)
                holders)
            holders)
        resources)

(* The waits-for graph the lock manager built over the whole table
   before it walked successors on demand, kept as the reference. [state]
   lists, per resource, the granted (txn, mode) pairs and the live
   waiters in FIFO order. Edges: each waiter waits for every granted
   holder it conflicts with and for earlier incompatible waiters. *)
let reference_creates_cycle state ~txn =
  let edges = Hashtbl.create 32 in
  let add_edge a b = if a <> b then Hashtbl.add edges a b in
  List.iter
    (fun (granted, waiting) ->
      List.iteri
        (fun i (w, wm) ->
          List.iter
            (fun (g, gm) -> if not (Lock_mode.compatible wm gm) then add_edge w g)
            granted;
          List.iteri
            (fun j (w', wm') ->
              if j < i && not (Lock_mode.compatible wm wm') then add_edge w w')
            waiting)
        waiting)
    state;
  let visited = Hashtbl.create 16 in
  let rec dfs v =
    if Hashtbl.mem visited v then false
    else begin
      Hashtbl.add visited v ();
      List.exists (fun s -> s = txn || dfs s) (Hashtbl.find_all edges v)
    end
  in
  List.exists (fun s -> s = txn || dfs s) (Hashtbl.find_all edges txn)

(* Random schedules under [`Graph] detection: every blocked request's
   verdict ([`Deadlock] or [`Blocked]) must match the reference's, taken
   on the table as the detector saw it — the state before the call plus
   the request's own waiter, appended unless it was already queued. *)
let prop_graph_detector_matches_reference =
  QCheck.Test.make ~name:"graph detector agrees with the whole-table reference" ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 40)
        (quad (int_bound 3) (int_bound 2) (oneofl Lock_mode.[ S; X; IX; SIX ]) (int_bound 4)))
    (fun ops ->
      let m = Lock_mgr.create () in
      let resources = [| r1; r2; obj1 |] in
      let holders r =
        List.filter_map
          (fun t -> Option.map (fun mode -> (t, mode)) (Lock_mgr.held_mode m ~txn:t r))
          [ 1; 2; 3; 4 ]
      in
      List.for_all
        (fun (txn, ri, mode, op) ->
          let txn = txn + 1 in
          if op = 0 then begin
            ignore (Lock_mgr.release_all m ~txn);
            true
          end
          else begin
            let target = resources.(ri) in
            let want =
              match Lock_mgr.held_mode m ~txn target with
              | Some held -> Lock_mode.sup held mode
              | None -> mode
            in
            let state =
              Array.to_list
                (Array.map
                   (fun r ->
                     let waiting = Lock_mgr.waiters m r in
                     let waiting =
                       if r = target && not (List.mem_assoc txn waiting) then
                         waiting @ [ (txn, want) ]
                       else waiting
                     in
                     (holders r, waiting))
                   resources)
            in
            match Lock_mgr.acquire m ~txn target mode with
            | `Granted -> true
            | `Blocked -> not (reference_creates_cycle state ~txn)
            | `Deadlock -> reference_creates_cycle state ~txn
            | `Timeout -> false
          end)
        ops)

let prop_release_all_is_total =
  QCheck.Test.make ~name:"release_all leaves nothing held or queued" ~count:100
    QCheck.(small_list (pair (int_bound 2) (oneofl Lock_mode.all)))
    (fun ops ->
      let m = Lock_mgr.create () in
      let resources = [| r1; r2; obj1 |] in
      List.iteri
        (fun i (r, mode) -> ignore (Lock_mgr.acquire m ~txn:((i mod 3) + 1) resources.(r) mode))
        ops;
      ignore (Lock_mgr.release_all m ~txn:1);
      ignore (Lock_mgr.release_all m ~txn:2);
      ignore (Lock_mgr.release_all m ~txn:3);
      Lock_mgr.n_locks m = 0
      && Lock_mgr.held_resources m ~txn:1 = []
      && Lock_mgr.held_resources m ~txn:2 = []
      && Lock_mgr.held_resources m ~txn:3 = [])

(* Regression for the release_all hot path: releasing must touch only the
   entries the transaction holds or waits on, never the whole table. The
   scenario builds an n+1-entry table (every transaction holds a private
   page and queues on one shared hot page) and then releases everyone;
   [lock.release_scan_entries] counts entries visited, which must grow
   linearly in n — the old whole-table ghost-waiter purge made this
   quadratic (~n^2/2 entries scanned across the release phase). *)
let test_release_scan_subquadratic () =
  let scan_entries n =
    let m = Lock_mgr.create () in
    let shared = Lock_mgr.page_resource ~area:9 ~page:0 in
    for i = 1 to n do
      (match Lock_mgr.acquire m ~txn:i (Lock_mgr.page_resource ~area:9 ~page:i) Lock_mode.X with
      | `Granted -> ()
      | _ -> Alcotest.fail "private page should be granted");
      ignore (Lock_mgr.acquire m ~txn:i shared Lock_mode.X)
    done;
    for i = 1 to n do
      ignore (Lock_mgr.release_all m ~txn:i)
    done;
    Alcotest.(check int) "no leaked entries" 0 (Lock_mgr.n_locks m);
    Bess_util.Stats.get (Lock_mgr.stats m) "lock.release_scan_entries"
  in
  let small = scan_entries 200 in
  let large = scan_entries 2000 in
  Alcotest.(check bool) "scan entries grow" true (large > small);
  (* Linear growth gives large = 10 * small; the old whole-table scan
     gave ~100x. Allow slack up to 3x linear. *)
  Alcotest.(check bool)
    (Printf.sprintf "sub-quadratic release scans (small=%d large=%d)" small large)
    true
    (large <= 30 * small)

let suite =
  [
    Alcotest.test_case "mode_algebra" `Quick test_mode_algebra;
    Alcotest.test_case "release_scan_subquadratic" `Quick test_release_scan_subquadratic;
    Alcotest.test_case "grant_block_release" `Quick test_grant_block_release;
    Alcotest.test_case "upgrade" `Quick test_upgrade;
    Alcotest.test_case "fifo_no_starvation" `Quick test_fifo_no_starvation;
    Alcotest.test_case "deadlock_graph" `Quick test_deadlock_graph;
    Alcotest.test_case "deadlock_timeout" `Quick test_deadlock_timeout;
    Alcotest.test_case "namespaces_disjoint" `Quick test_object_and_page_namespaces_disjoint;
    Alcotest.test_case "regrant_cheap" `Quick test_regrant_is_cheap;
    Alcotest.test_case "ghost_waiter_followers_woken" `Quick test_ghost_waiter_followers_woken;
    Alcotest.test_case "handoff_grants_in_place" `Quick test_handoff_grants_in_place;
    Alcotest.test_case "handoff_shared_prefix" `Quick test_handoff_shared_prefix;
    Alcotest.test_case "grant_filter_veto" `Quick test_grant_filter_veto;
    Alcotest.test_case "wake_to_grant_bounded" `Quick test_wake_to_grant_bounded;
    Alcotest.test_case "timeout_on_the_simulated_clock" `Quick
      test_timeout_on_the_simulated_clock;
    Alcotest.test_case "waiters_count_incremental" `Quick test_waiters_count_incremental;
    Alcotest.test_case "callback_registry" `Quick test_callback_registry;
    Alcotest.test_case "callback_downgrade_forget" `Quick test_callback_downgrade_and_forget;
    QCheck_alcotest.to_alcotest prop_handoff_fifo;
    QCheck_alcotest.to_alcotest prop_sup_is_lub;
    QCheck_alcotest.to_alcotest prop_release_unblocks;
    QCheck_alcotest.to_alcotest prop_no_incompatible_grants;
    QCheck_alcotest.to_alcotest prop_release_all_is_total;
    QCheck_alcotest.to_alcotest prop_graph_detector_matches_reference;
  ]
