(* The lock table: strict two-phase locking with FIFO wait queues.

   The simulation is cooperative, so [acquire] never blocks a thread --
   it returns [`Granted] or [`Blocked], and a blocked client waits until
   a [release_all] hands it the lock (grant handoff, below). Deadlocks
   are detected two ways, both from the paper's world: timeouts (what
   BeSS uses for the distributed case) on the simulated clock, and an
   exact waits-for-graph cycle check (what a local lock manager can
   afford). Experiments can choose either.

   Resources are small integer triples so page, file and object locks all
   fit one table: [space] names the namespace (see {!resource}).

   Hot-path complexity matters here: with 10^4..10^6 simulated clients the
   old list-based representation (append-at-tail enqueue, whole-table scan
   in [release_all] to purge ghost waiters) turned every release into O(table)
   and hot-key convoys into O(waiters^2). Waiters now live in a per-entry
   FIFO [Queue.t] of records with a cancelled flag (O(1) enqueue, O(1)
   lazy cancel, amortised compaction), each entry indexes its live waiters
   by transaction, and each transaction tracks the exact set of resources
   it is queued on — so [release_all] touches only the entries the
   transaction actually holds or waits on. The counter
   [lock.release_scan_entries] records how many entries each release
   visited; the regression test asserts it stays linear in the number of
   transactions.

   Grant handoff (wake-on-release): [release_all] does not merely hint
   at who might be grantable — it grants the maximal compatible FIFO
   prefix of each affected queue *in place*, transferring the lock
   before any new acquirer can barge, and fires the registered wake
   hook once per granted transaction. Blocked callers park on that wake
   instead of poll-retrying, so a hot resource pays zero dead time
   between a release and the successor's grant ([lock.handoffs] counts
   the transfers, [lock.wake_to_grant_ns] the dead time — identically
   zero for handoff grants). The optional grant filter lets the server
   veto an in-place grant that still conflicts with other clients'
   *cached* copies (callback locking): a vetoed waiter keeps its queue
   position and is woken so its own re-poll resolves the conflict, so
   FIFO order survives the veto.

   Timeouts are read, not driven: each waiter is stamped with the
   simulated clock at enqueue, and a re-poll [timeout_ns] or more later
   returns [`Timeout]. Nothing here advances time or wakes a waiter on
   expiry — a parked caller keeps one deadline of its own (the driver
   schedules it on the event heap) and re-polls when it fires. *)

module Span = Bess_obs.Span

type resource = { space : int; a : int; b : int }

let page_resource ~area ~page = { space = 0; a = area; b = page }
let object_resource ~db ~slot = { space = 1; a = db; b = slot }

let pp_resource ppf r =
  let name = match r.space with 0 -> "page" | 1 -> "obj" | _ -> "res" in
  Fmt.pf ppf "%s(%d,%d)" name r.a r.b

(* A request may wait this long, in simulated ns, before [`Timeout]
   detection declares it deadlocked. See DESIGN.md §4h for the measured
   waits it is sized against. *)
let timeout_ns = 200_000_000

type waiter = {
  w_txn : int;
  w_mode : Lock_mode.t;
  w_seq : int; (* per-table enqueue order *)
  w_enqueued_ns : int; (* simulated clock at enqueue *)
  mutable w_cancelled : bool; (* granted, purged or aborted; skipped on iteration *)
  mutable w_woken_ns : int; (* clock at the most recent wake; -1 if never *)
}

type entry = {
  mutable granted : (int * Lock_mode.t) list; (* txn, cumulative mode *)
  waiting : waiter Queue.t; (* FIFO order; may hold cancelled nodes *)
  by_txn : (int, waiter) Hashtbl.t; (* live waiters only *)
  mutable n_live : int;
}

type counters = {
  regrants : Bess_util.Stats.counter;
  grants : Bess_util.Stats.counter;
  blocks : Bess_util.Stats.counter;
  deadlocks : Bess_util.Stats.counter;
  timeouts : Bess_util.Stats.counter;
  handoffs : Bess_util.Stats.counter;
  veto_wakes : Bess_util.Stats.counter;
  release_alls : Bess_util.Stats.counter;
  release_scan_entries : Bess_util.Stats.counter;
  wait_ns : Bess_util.Stats.hist;
  wake_to_grant_ns : Bess_util.Stats.hist;
}

let counters stats =
  {
    regrants = Bess_util.Stats.counter stats "lock.regrants";
    grants = Bess_util.Stats.counter stats "lock.grants";
    blocks = Bess_util.Stats.counter stats "lock.blocks";
    deadlocks = Bess_util.Stats.counter stats "lock.deadlocks";
    timeouts = Bess_util.Stats.counter stats "lock.timeouts";
    handoffs = Bess_util.Stats.counter stats "lock.handoffs";
    veto_wakes = Bess_util.Stats.counter stats "lock.veto_wakes";
    release_alls = Bess_util.Stats.counter stats "lock.release_alls";
    release_scan_entries = Bess_util.Stats.counter stats "lock.release_scan_entries";
    wait_ns = Bess_util.Stats.hist stats "lock.wait_ns";
    wake_to_grant_ns = Bess_util.Stats.hist stats "lock.wake_to_grant_ns";
  }

type t = {
  table : (resource, entry) Hashtbl.t;
  held : (int, (resource, unit) Hashtbl.t) Hashtbl.t; (* txn -> granted resources *)
  waits : (int, (resource, unit) Hashtbl.t) Hashtbl.t; (* txn -> resources it queues on *)
  mutable next_seq : int; (* stamps [w_seq] *)
  stats : Bess_util.Stats.t;
  c : counters;
  mutable n_waiters : int; (* live waiters across all entries, kept incrementally *)
  mutable wake_hook : (txn:int -> unit) option;
  mutable grant_filter : (txn:int -> resource -> Lock_mode.t -> bool) option;
  (* A wait crosses acquire calls (enqueue in one, grant or purge in
     another), so its span cannot live on the stack: it is opened as a
     root span at enqueue and parked here until the wait resolves. *)
  wait_spans : (int * resource, Span.handle) Hashtbl.t;
}

let create () =
  let stats = Bess_util.Stats.create () in
  (* Eager: the wait and wake-to-grant distributions are part of every
     report even when no request ever blocked. *)
  ignore (Bess_util.Stats.histogram stats "lock.wait_ns");
  ignore (Bess_util.Stats.histogram stats "lock.wake_to_grant_ns");
  Bess_obs.Registry.register_stats "lock" stats;
  let t =
    { table = Hashtbl.create 256; held = Hashtbl.create 32; waits = Hashtbl.create 32;
      next_seq = 0; stats; c = counters stats; n_waiters = 0; wake_hook = None;
      grant_filter = None; wait_spans = Hashtbl.create 16 }
  in
  Bess_obs.Registry.register_gauge "lock" "lock.table_size" (fun () ->
      Hashtbl.length t.table);
  (* Incremental: folding the whole table here made every Series window
     O(table). *)
  Bess_obs.Registry.register_gauge "lock" "lock.waiters" (fun () -> t.n_waiters);
  t

(* A crash loses the table: every field goes back to what [create]
   gives, in place, while the stats (so counts continue across the
   restart) and the wake hook and grant filter stay. A parked wait span
   is dropped unclosed, as its transaction is. *)
let reset t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.held;
  Hashtbl.reset t.waits;
  t.next_seq <- 0;
  t.n_waiters <- 0;
  Hashtbl.reset t.wait_spans

let stats t = t.stats

let n_waiters t = t.n_waiters
let set_wake_hook t f = t.wake_hook <- f
let set_grant_filter t f = t.grant_filter <- f

let entry t r =
  match Hashtbl.find_opt t.table r with
  | Some e -> e
  | None ->
      let e = { granted = []; waiting = Queue.create (); by_txn = Hashtbl.create 4; n_live = 0 } in
      Hashtbl.add t.table r e;
      e

let entry_empty e = e.granted = [] && e.n_live = 0

(* Live waiters in FIFO order. *)
let iter_live e f = Queue.iter (fun w -> if not w.w_cancelled then f w) e.waiting

(* Cancelled nodes stay queued until this amortised rebuild; triggering
   on 2x live keeps total compaction work linear in enqueues. *)
let maybe_compact e =
  if Queue.length e.waiting > (2 * e.n_live) + 8 then begin
    let live = Queue.create () in
    Queue.iter (fun w -> if not w.w_cancelled then Queue.push w live) e.waiting;
    Queue.clear e.waiting;
    Queue.transfer live e.waiting
  end

let held_mode t ~txn r =
  match Hashtbl.find_opt t.table r with
  | None -> None
  | Some e -> List.assoc_opt txn e.granted

let holds t ~txn r mode =
  match held_mode t ~txn r with Some m -> Lock_mode.covers m mode | None -> false

let txn_set tbl txn =
  match Hashtbl.find_opt tbl txn with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.add tbl txn s;
      s

let record_held t ~txn r = Hashtbl.replace (txn_set t.held txn) r ()

(* Would granting [mode] to [txn] conflict with other granted locks? *)
let conflicts e ~txn mode =
  List.exists (fun (t', m') -> t' <> txn && not (Lock_mode.compatible mode m')) e.granted

(* A request may jump the queue only if it is a lock *upgrade* (the txn
   already holds the resource); fresh requests respect FIFO order so
   writers are not starved. *)
let blocked_by_queue e ~txn =
  e.n_live > if Hashtbl.mem e.by_txn txn then 1 else 0

(* ---- Waits-for graph ----------------------------------------------------- *)

(* Edges: each waiter waits for every granted holder it conflicts with and
   for earlier incompatible waiters. Exact cycle detection by DFS from the
   requester, walking successors on demand through the [waits] index, so
   only the part of the graph the requester can reach is ever touched.

   Pruning: an older waiter of a resource reaches a subset of what a
   newer waiter of the same mode reaches (the same holders, a shorter
   queue prefix), so once a waiter's prefix has been enumerated, older
   same-mode waiters on that resource need not be. [covered] remembers,
   per (resource, mode), the newest enumerated waiter. The one successor
   the newer waiter skipped is its own transaction (as a holder, for an
   upgrade); that only matters when it is the requester, which the skip
   checks. A convoy of n same-mode waiters costs O(n) per check, where
   rebuilding the whole table's edges cost O(sum of queue^2). *)
let creates_cycle t ~txn =
  let visited = Hashtbl.create 16 in
  let covered = Hashtbl.create 8 in
  let rec reaches v =
    match Hashtbl.find_opt t.waits v with
    | None -> false
    | Some rs ->
        let rs = Hashtbl.fold (fun r () acc -> r :: acc) rs [] in
        List.exists (fun r -> reaches_via v r) rs
  and reaches_via v r =
    let e = Hashtbl.find t.table r in
    let w = Hashtbl.find e.by_txn v in
    let conflicts_with m = not (Lock_mode.compatible w.w_mode m) in
    match Hashtbl.find_opt covered (r, w.w_mode) with
    | Some (newest, setter) when newest.w_seq > w.w_seq ->
        setter = txn
        && (match List.assoc_opt txn e.granted with
           | Some m -> conflicts_with m
           | None -> false)
    | _ ->
        Hashtbl.replace covered (r, w.w_mode) (w, v);
        (* Newest-first, so the first expansion of a convoy covers it. *)
        let earlier = ref [] in
        (try
           iter_live e (fun w' ->
               if w' == w then raise Exit
               else if conflicts_with w'.w_mode then earlier := w'.w_txn :: !earlier)
         with Exit -> ());
        let holders =
          List.filter_map (fun (g, m) -> if conflicts_with m then Some g else None) e.granted
        in
        List.exists (fun s -> s <> v && (s = txn || visit s)) holders
        || List.exists (fun s -> s <> v && (s = txn || visit s)) !earlier
  and visit s =
    (not (Hashtbl.mem visited s))
    && begin
         Hashtbl.add visited s ();
         reaches s
       end
  in
  reaches txn

(* ---- Acquire / release --------------------------------------------------- *)

(* [`Deadlock] is a proven cycle: someone must abort, retrying is
   futile. [`Timeout] is only *suspicion* of one (the distributed
   detector cannot prove a cycle) — the victim may safely retry once
   the ambient load drains, so callers get to tell them apart. *)
type verdict = [ `Granted | `Blocked | `Deadlock | `Timeout ]

let remove_waiter t e ~txn r =
  match Hashtbl.find_opt e.by_txn txn with
  | None -> ()
  | Some w ->
      w.w_cancelled <- true;
      Hashtbl.remove e.by_txn txn;
      e.n_live <- e.n_live - 1;
      t.n_waiters <- t.n_waiters - 1;
      (match Hashtbl.find_opt t.waits txn with
      | Some s ->
          Hashtbl.remove s r;
          if Hashtbl.length s = 0 then Hashtbl.remove t.waits txn
      | None -> ());
      maybe_compact e

let enqueue_waiter t e ~txn r mode =
  let w =
    { w_txn = txn; w_mode = mode; w_seq = t.next_seq; w_enqueued_ns = Span.now_ns ();
      w_cancelled = false; w_woken_ns = -1 }
  in
  t.next_seq <- t.next_seq + 1;
  Queue.push w e.waiting;
  Hashtbl.replace e.by_txn txn w;
  e.n_live <- e.n_live + 1;
  t.n_waiters <- t.n_waiters + 1;
  Hashtbl.replace (txn_set t.waits txn) r ()

(* A request that waited is about to be granted: record how long it sat
   in the queue, and — if a release woke it — the dead time between that
   wake and the grant, in simulated ns. Handoff grants stamp [w_woken_ns]
   first, so their dead time is identically zero; a waiter woken by a
   veto pays the gap until its re-poll. *)
let observe_wait t e ~txn =
  match Hashtbl.find_opt e.by_txn txn with
  | Some w ->
      let now = Span.now_ns () in
      Bess_util.Stats.record t.c.wait_ns (now - w.w_enqueued_ns);
      if w.w_woken_ns >= 0 then
        Bess_util.Stats.record t.c.wake_to_grant_ns (now - w.w_woken_ns)
  | None -> ()

(* Open the parked wait span for a newly enqueued request. Root span:
   the wait resolves in a different call (possibly a different client's),
   so it cannot nest under whatever span is ambient right now. *)
let begin_wait t ~txn r ~mode =
  if Span.enabled () && not (Hashtbl.mem t.wait_spans (txn, r)) then
    Hashtbl.replace t.wait_spans (txn, r)
      (Span.start ~root:true
         ~attrs:
           [ ("txn", string_of_int txn); ("resource", Fmt.str "%a" pp_resource r);
             ("mode", Lock_mode.to_string mode) ]
         ~kind:"lock.wait" ())

let end_wait t ~txn r ~outcome =
  (* Empty unless spans are installed: skip hashing the key. *)
  if Hashtbl.length t.wait_spans > 0 then
    match Hashtbl.find_opt t.wait_spans (txn, r) with
    | None -> ()
    | Some h ->
        Hashtbl.remove t.wait_spans (txn, r);
        Span.finish ~attrs:[ ("outcome", outcome) ] h

let acquire ?(detect = `Graph) t ~txn r mode : verdict =
  let e = entry t r in
  let current = List.assoc_opt txn e.granted in
  let want = match current with Some m -> Lock_mode.sup m mode | None -> mode in
  let attrs () =
    if Span.enabled () then
      [ ("txn", string_of_int txn); ("resource", Fmt.str "%a" pp_resource r);
        ("mode", Lock_mode.to_string mode) ]
    else []
  in
  Span.with_span ~attrs:(attrs ()) ~kind:"lock.acquire" (fun () ->
      match current with
      | Some m when Lock_mode.covers m mode ->
          Bess_util.Stats.bump t.c.regrants;
          observe_wait t e ~txn;
          remove_waiter t e ~txn r;
          end_wait t ~txn r ~outcome:"granted";
          `Granted
      | _ ->
          let is_upgrade = current <> None in
          if (not (conflicts e ~txn want)) && (is_upgrade || not (blocked_by_queue e ~txn))
          then begin
            e.granted <- (txn, want) :: List.remove_assoc txn e.granted;
            observe_wait t e ~txn;
            remove_waiter t e ~txn r;
            end_wait t ~txn r ~outcome:"granted";
            record_held t ~txn r;
            Bess_util.Stats.bump t.c.grants;
            `Granted
          end
          else begin
            if not (Hashtbl.mem e.by_txn txn) then begin
              enqueue_waiter t e ~txn r want;
              Bess_util.Stats.bump t.c.blocks;
              begin_wait t ~txn r ~mode:want
            end;
            match detect with
            | `Graph ->
                if creates_cycle t ~txn then begin
                  remove_waiter t e ~txn r;
                  end_wait t ~txn r ~outcome:"deadlock";
                  Bess_util.Stats.bump t.c.deadlocks;
                  if entry_empty e then Hashtbl.remove t.table r;
                  `Deadlock
                end
                else `Blocked
            | `Timeout ->
                let w = Hashtbl.find e.by_txn txn in
                if Span.now_ns () - w.w_enqueued_ns >= timeout_ns then begin
                  remove_waiter t e ~txn r;
                  end_wait t ~txn r ~outcome:"timeout";
                  Bess_util.Stats.bump t.c.timeouts;
                  if entry_empty e then Hashtbl.remove t.table r;
                  `Timeout
                end
                else `Blocked
          end)

(* Grant the maximal compatible FIFO prefix of [e]'s queue in place.
   Called after a release removed a holder (or purged a ghost waiter):
   the lock transfers to its successors *here*, before any new acquirer
   can observe it free, so nobody barges. The scan stops at the first
   live waiter that conflicts with the (updated) granted set — strict
   FIFO, so writers queued behind readers are not starved — or whose
   grant the filter vetoes (a cached-copy conflict the server must first
   call back; the waiter keeps its position and is woken so its own
   re-poll — which runs the full callback path — resolves the conflict
   without waiting for its deadline).

   Cost is O(granted prefix), not O(queue): the scan peeks and pops from
   the head, discarding cancelled nodes as it goes, and stops at the
   first live waiter it cannot grant — a deep convoy behind an X waiter
   costs one peek per release, however many sleep behind it. The
   peek-then-recheck shape is because the filter may run client
   callbacks that touch this very entry (and a grant's own bookkeeping
   may trigger queue compaction, so the pop only lands if the head is
   physically still ours). *)
let grant_scan t e r =
  let granted_txns = ref [] in
  let stop = ref false in
  while (not !stop) && not (Queue.is_empty e.waiting) do
    let w = Queue.peek e.waiting in
    if w.w_cancelled then ignore (Queue.pop e.waiting)
    else if conflicts e ~txn:w.w_txn w.w_mode then stop := true
    else begin
      let ok =
        match t.grant_filter with
        | None -> true
        | Some f -> f ~txn:w.w_txn r w.w_mode
      in
      (* The filter ran arbitrary code: re-check before transferring. *)
      if ok && (not w.w_cancelled) && not (conflicts e ~txn:w.w_txn w.w_mode) then begin
        let want =
          match List.assoc_opt w.w_txn e.granted with
          | Some m -> Lock_mode.sup m w.w_mode
          | None -> w.w_mode
        in
        w.w_woken_ns <- Span.now_ns ();
        observe_wait t e ~txn:w.w_txn;
        e.granted <- (w.w_txn, want) :: List.remove_assoc w.w_txn e.granted;
        record_held t ~txn:w.w_txn r;
        remove_waiter t e ~txn:w.w_txn r;
        end_wait t ~txn:w.w_txn r ~outcome:"handoff";
        Bess_util.Stats.bump t.c.grants;
        Bess_util.Stats.bump t.c.handoffs;
        granted_txns := w.w_txn :: !granted_txns;
        match Queue.peek_opt e.waiting with
        | Some w' when w' == w -> ignore (Queue.pop e.waiting)
        | _ -> () (* compaction already rebuilt the queue without it *)
      end
      else begin
        (* Vetoed (or raced): the waiter keeps its queue position, but
           wake it now — its re-poll runs the full callback path at
           once instead of sleeping until its deadline. *)
        if not w.w_cancelled then begin
          w.w_woken_ns <- Span.now_ns ();
          Bess_util.Stats.bump t.c.veto_wakes;
          match t.wake_hook with None -> () | Some f -> f ~txn:w.w_txn
        end;
        stop := true
      end
    end
  done;
  let granted = List.rev !granted_txns in
  (match t.wake_hook with
  | None -> ()
  | Some f -> List.iter (fun txn -> f ~txn) granted);
  granted

(* Release everything held by [txn] (strict 2PL: only at commit/abort).
   Cost is O(resources the transaction holds or waits on), not
   O(lock table): the per-txn wait set replaces the old whole-table scan
   for ghost waiters (requests still queued on resources the transaction
   never got — those would block later requesters in FIFO order, and the
   transactions queued behind them must be woken or they stall forever,
   since no release on those resources is coming).

   Returns the transactions granted in place (their wake hooks already
   fired). *)
let release_all t ~txn =
  let wake = ref [] in
  let woken = Hashtbl.create 16 in
  let scanned = ref 0 in
  let note_woken w_txn =
    if not (Hashtbl.mem woken w_txn) then begin
      Hashtbl.add woken w_txn ();
      wake := w_txn :: !wake
    end
  in
  let visit r =
    incr scanned;
    match Hashtbl.find_opt t.table r with
    | None -> ()
    | Some e ->
        e.granted <- List.remove_assoc txn e.granted;
        remove_waiter t e ~txn r;
        end_wait t ~txn r ~outcome:"released";
        List.iter note_woken (grant_scan t e r);
        if entry_empty e then Hashtbl.remove t.table r
  in
  (match Hashtbl.find_opt t.held txn with
  | None -> ()
  | Some resources ->
      Hashtbl.iter (fun r () -> visit r) resources;
      Hashtbl.remove t.held txn);
  (match Hashtbl.find_opt t.waits txn with
  | None -> ()
  | Some resources ->
      (* Copy first: [visit] edits this set through [remove_waiter]. *)
      let rs = Hashtbl.fold (fun r () acc -> r :: acc) resources [] in
      List.iter visit rs);
  Bess_util.Stats.bump t.c.release_alls;
  Bess_util.Stats.bump_by t.c.release_scan_entries !scanned;
  List.rev !wake

let held_resources t ~txn =
  match Hashtbl.find_opt t.held txn with
  | Some s -> Hashtbl.fold (fun r () acc -> r :: acc) s []
  | None -> []

let waiters t r =
  match Hashtbl.find_opt t.table r with
  | None -> []
  | Some e ->
      let acc = ref [] in
      iter_live e (fun w -> acc := (w.w_txn, w.w_mode) :: !acc);
      List.rev !acc

let n_locks t = Hashtbl.length t.table
