(* The lock table: strict two-phase locking with FIFO wait queues.

   The simulation is cooperative, so [acquire] never blocks a thread --
   it returns [`Granted] or [`Blocked], and a blocked client waits until
   a [release_all] hands it the lock (grant handoff, below). Deadlocks
   are detected two ways, both from the paper's world: timeouts (what
   BeSS uses for the distributed case) on the simulated clock, and an
   exact waits-for-graph cycle check (what a local lock manager can
   afford). Experiments can choose either.

   A resource is one packed int, so page and object locks share one
   table and one key space: a namespace bit, then the area (or
   database) and the page (or slot), at widths that cover every id the
   system issues (see [page_resource]). Comparing two resources is
   comparing two ints.

   Hot-path complexity matters here: with 10^4..10^6 simulated clients the
   old list-based representation (append-at-tail enqueue, whole-table scan
   in [release_all] to purge ghost waiters) turned every release into O(table)
   and hot-key convoys into O(waiters^2). Waiters now live in a per-entry
   FIFO [Queue.t] of records with a cancelled flag (O(1) enqueue, O(1)
   lazy cancel, amortised compaction), and each transaction lists the
   resources it holds, in acquisition order, and the live waiters it has
   queued (a transaction waits on one request at a time, so that list is
   short however long a convoy grows) — so [release_all] touches only the
   entries the transaction actually holds or waits on. The counter
   [lock.release_scan_entries] records how many entries each release
   visited; the regression test asserts it stays linear in the number of
   transactions.

   Every table is flat or int-keyed: the lock table is a pool of entry
   records indexed by resource through a [Bess_util.Int_map], and an
   entry whose last holder and waiter leave goes back to the pool's
   free list with its queue, to be reused by the next resource locked.
   Transactions are [Int_tbl] keys, and no table is built per
   transaction or per entry, so an uncontended acquire and release
   allocate a handful of small blocks and hash nothing polymorphically.

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
module Int_tbl = Bess_util.Int_tbl
module Int_map = Bess_util.Int_map

(* Bit 61 is the namespace (0 page, 1 object), bits 40-60 the area or
   database, bits 0-39 the page or slot: the widths [Page_id.to_key]
   gives area and page, less the namespace bit. Areas are numbered
   [db_id * 100 + k] and object slots [seg_id lsl 16 lor idx], so both
   stay far inside them. Packed this way, int order is the order of
   (namespace, area or db, page or slot). *)
type resource = int

let minor_bits = 40
let major_bits = 21
let object_space = 1 lsl (major_bits + minor_bits)

let pack ~msg space major minor =
  if major lsr major_bits <> 0 || minor lsr minor_bits <> 0 then invalid_arg msg;
  space lor (major lsl minor_bits) lor minor

let page_resource ~area ~page =
  pack ~msg:"Lock_mgr.page_resource: coordinate out of range" 0 area page

let object_resource ~db ~slot =
  pack ~msg:"Lock_mgr.object_resource: coordinate out of range" object_space db slot

let is_page r = r land object_space = 0
let major r = (r lsr minor_bits) land ((1 lsl major_bits) - 1)
let minor r = r land ((1 lsl minor_bits) - 1)

let pp_resource ppf r =
  Fmt.pf ppf "%s(%d,%d)" (if is_page r then "page" else "obj") (major r) (minor r)

(* A request may wait this long, in simulated ns, before [`Timeout]
   detection declares it deadlocked. See DESIGN.md §4h for the measured
   waits it is sized against. *)
let timeout_ns = 200_000_000

type waiter = {
  w_txn : int;
  w_res : resource;
  w_mode : Lock_mode.t;
  w_seq : int; (* per-table enqueue order *)
  w_enqueued_ns : int; (* simulated clock at enqueue *)
  mutable w_cancelled : bool; (* granted, purged or aborted; skipped on iteration *)
  mutable w_woken_ns : int; (* clock at the most recent wake; -1 if never *)
  (* A wait crosses acquire calls (enqueue in one, grant or purge in
     another), so its span cannot live on the stack: it is opened as a
     root span at enqueue and closed when the waiter leaves the queue. *)
  mutable w_span : Span.handle;
}

type entry = {
  slot : int; (* its index in the pool *)
  mutable res : resource; (* the resource it is bound to; -1 while free *)
  mutable granted : (int * Lock_mode.t) list; (* txn, cumulative mode *)
  waiting : waiter Queue.t; (* FIFO order; may hold cancelled nodes *)
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
  index : Int_map.t; (* resource -> the slot of its entry in [pool] *)
  mutable pool : entry array; (* slots [0, n_made) hold made entries; the rest are filler *)
  mutable n_made : int;
  mutable free : int array; (* a stack of the made slots bound to nothing *)
  mutable n_free : int;
  held : resource list Int_tbl.t; (* txn -> granted resources, newest first *)
  waits : waiter list Int_tbl.t; (* txn -> its live waiters *)
  mutable next_seq : int; (* stamps [w_seq] *)
  stats : Bess_util.Stats.t;
  c : counters;
  mutable n_waiters : int; (* live waiters across all entries, kept incrementally *)
  mutable wake_hook : (txn:int -> unit) option;
  mutable grant_filter : (txn:int -> resource -> Lock_mode.t -> bool) option;
}

let create () =
  let stats = Bess_util.Stats.create () in
  (* Eager: the wait and wake-to-grant distributions are part of every
     report even when no request ever blocked. *)
  ignore (Bess_util.Stats.histogram stats "lock.wait_ns");
  ignore (Bess_util.Stats.histogram stats "lock.wake_to_grant_ns");
  Bess_obs.Registry.register_stats "lock" stats;
  let t =
    { index = Int_map.create 256; pool = [||]; n_made = 0; free = [||]; n_free = 0;
      held = Int_tbl.create 32; waits = Int_tbl.create 32; next_seq = 0; stats;
      c = counters stats; n_waiters = 0; wake_hook = None; grant_filter = None }
  in
  Bess_obs.Registry.register_gauge "lock" "lock.table_size" (fun () ->
      Int_map.length t.index);
  (* Incremental: folding the whole table here made every Series window
     O(table). *)
  Bess_obs.Registry.register_gauge "lock" "lock.waiters" (fun () -> t.n_waiters);
  t

(* An entry bound to a resource goes back to the free list, its queue
   emptied of cancelled nodes. A free entry stays free, so a caller
   still holding one after a reentrant release freed it cannot free it
   twice. *)
let drop_entry t e =
  if e.res >= 0 then begin
    Int_map.remove t.index e.res;
    e.res <- -1;
    Queue.clear e.waiting;
    t.free.(t.n_free) <- e.slot;
    t.n_free <- t.n_free + 1
  end

(* A crash loses the table: every entry is unbound and every other
   field goes back to what [create] gives, in place, while the stats (so
   counts continue across the restart) and the wake hook and grant
   filter stay. A parked wait span is dropped unclosed, as its
   transaction is. *)
let reset t =
  for i = 0 to t.n_made - 1 do
    let e = t.pool.(i) in
    e.granted <- [];
    e.n_live <- 0;
    drop_entry t e
  done;
  Int_tbl.reset t.held;
  Int_tbl.reset t.waits;
  t.next_seq <- 0;
  t.n_waiters <- 0

let stats t = t.stats

let n_waiters t = t.n_waiters
let set_wake_hook t f = t.wake_hook <- f
let set_grant_filter t f = t.grant_filter <- f

(* [r]'s entry, bound from the free list (or a new slot) if it has
   none. *)
let entry t r =
  let i = Int_map.find t.index r in
  if i >= 0 then Array.unsafe_get t.pool i
  else begin
    let e =
      if t.n_free > 0 then begin
        t.n_free <- t.n_free - 1;
        t.pool.(t.free.(t.n_free))
      end
      else begin
        let i = t.n_made in
        let e = { slot = i; res = -1; granted = []; waiting = Queue.create (); n_live = 0 } in
        if i = Array.length t.pool then begin
          t.pool <- Array.append t.pool (Array.make (max 64 i) e);
          t.free <- Array.append t.free (Array.make (max 64 i) 0)
        end;
        t.pool.(i) <- e;
        t.n_made <- i + 1;
        e
      end
    in
    e.res <- r;
    Int_map.replace t.index r e.slot;
    e
  end

let entry_empty e = match e.granted with [] -> e.n_live = 0 | _ :: _ -> false

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
  let i = Int_map.find t.index r in
  if i < 0 then None else Lock_mode.holder_mode txn t.pool.(i).granted

let holds t ~txn r mode =
  match held_mode t ~txn r with Some m -> Lock_mode.covers m mode | None -> false

let txn_list tbl txn = Option.value (Int_tbl.find_opt tbl txn) ~default:[]

(* Called on a fresh grant only: an upgrade's resource is listed already. *)
let record_held t ~txn r = Int_tbl.replace t.held txn (r :: txn_list t.held txn)

(* [txn]'s live waiter on [e] (resource [r]), found through the
   transaction's own short wait list rather than the entry's queue. *)
let queued t e ~txn r =
  if e.n_live = 0 then None
  else
    let rec find = function
      | [] -> None
      | w :: ws -> if w.w_res = r then Some w else find ws
    in
    find (txn_list t.waits txn)

(* Would granting [mode] to [txn] conflict with other granted locks? *)
let conflicts e ~txn mode =
  List.exists (fun (t', m') -> t' <> txn && not (Lock_mode.compatible mode m')) e.granted

(* A request may jump the queue only if it is a lock *upgrade* (the txn
   already holds the resource); fresh requests respect FIFO order so
   writers are not starved. *)
let blocked_by_queue t e ~txn r =
  e.n_live > if Option.is_some (queued t e ~txn r) then 1 else 0

(* ---- Waits-for graph ----------------------------------------------------- *)

(* Edges: each waiter waits for every granted holder it conflicts with and
   for earlier incompatible waiters. Exact cycle detection by DFS from the
   requester, walking successors on demand through the [waits] index, so
   only the part of the graph the requester can reach is ever touched.

   Pruning: an older waiter of a resource reaches a subset of what a
   newer waiter of the same mode reaches (the same holders, a shorter
   queue prefix), so once a waiter's prefix has been enumerated, older
   same-mode waiters on that resource need not be. [covered] remembers,
   per resource and mode, the newest enumerated waiter. The one successor
   the newer waiter skipped is its own transaction (as a holder, for an
   upgrade); that only matters when it is the requester, which the skip
   checks. A convoy of n same-mode waiters costs O(n) per check, where
   rebuilding the whole table's edges cost O(sum of queue^2). *)
let creates_cycle t ~txn =
  let visited = Int_tbl.create 16 in
  let covered = Int_tbl.create 8 in
  let rec reaches v = List.exists (reaches_via v) (txn_list t.waits v)
  and reaches_via v w =
    let e = t.pool.(Int_map.find t.index w.w_res) in
    let conflicts_with m = not (Lock_mode.compatible w.w_mode m) in
    let newest = Option.value (Int_tbl.find_opt covered w.w_res) ~default:[] in
    match List.find_opt (fun n -> n.w_mode = w.w_mode) newest with
    | Some n when n.w_seq > w.w_seq ->
        n.w_txn = txn
        && (match Lock_mode.holder_mode txn e.granted with
           | Some m -> conflicts_with m
           | None -> false)
    | _ ->
        Int_tbl.replace covered w.w_res
          (w :: List.filter (fun n -> n.w_mode <> w.w_mode) newest);
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
    (not (Int_tbl.mem visited s))
    && begin
         Int_tbl.add visited s ();
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

(* Take [w] off its entry and its transaction's wait list, and close its
   wait span with [outcome]. *)
let remove_waiter t e w ~outcome =
  w.w_cancelled <- true;
  e.n_live <- e.n_live - 1;
  t.n_waiters <- t.n_waiters - 1;
  (match List.filter (fun w' -> w' != w) (txn_list t.waits w.w_txn) with
  | [] -> Int_tbl.remove t.waits w.w_txn
  | ws -> Int_tbl.replace t.waits w.w_txn ws);
  maybe_compact e;
  if w.w_span != Span.none then begin
    Span.finish ~attrs:[ ("outcome", outcome) ] w.w_span;
    w.w_span <- Span.none
  end

let span_attrs ~txn r mode =
  [ ("txn", string_of_int txn); ("resource", Fmt.str "%a" pp_resource r);
    ("mode", Lock_mode.to_string mode) ]

let enqueue_waiter t e ~txn r mode =
  let w =
    { w_txn = txn; w_res = r; w_mode = mode; w_seq = t.next_seq;
      w_enqueued_ns = Span.now_ns (); w_cancelled = false; w_woken_ns = -1;
      w_span = Span.none }
  in
  t.next_seq <- t.next_seq + 1;
  Queue.push w e.waiting;
  e.n_live <- e.n_live + 1;
  t.n_waiters <- t.n_waiters + 1;
  Int_tbl.replace t.waits txn (w :: txn_list t.waits txn);
  (* Open the parked wait span. Root span: the wait resolves in a
     different call (possibly a different client's), so it cannot nest
     under whatever span is ambient right now. *)
  if Span.enabled () then
    w.w_span <- Span.start ~root:true ~attrs:(span_attrs ~txn r mode) ~kind:"lock.wait" ();
  w

(* A request that waited is about to be granted: record how long it sat
   in the queue, and — if a release woke it — the dead time between that
   wake and the grant, in simulated ns. Handoff grants stamp [w_woken_ns]
   first, so their dead time is identically zero; a waiter woken by a
   veto pays the gap until its re-poll. *)
let observe_wait t w =
  let now = Span.now_ns () in
  Bess_util.Stats.record t.c.wait_ns (now - w.w_enqueued_ns);
  if w.w_woken_ns >= 0 then Bess_util.Stats.record t.c.wake_to_grant_ns (now - w.w_woken_ns)

(* [txn]'s own request on [r] is granted: a waiter it left queued
   there is settled. *)
let settle t e ~txn r =
  match queued t e ~txn r with
  | Some w ->
      observe_wait t w;
      remove_waiter t e w ~outcome:"granted"
  | None -> ()

let acquire ?(detect = `Graph) t ~txn r mode : verdict =
  let e = entry t r in
  let current = Lock_mode.holder_mode txn e.granted in
  let want = match current with Some m -> Lock_mode.sup m mode | None -> mode in
  let attrs = if Span.enabled () then span_attrs ~txn r mode else [] in
  Span.with_span ~attrs ~kind:"lock.acquire" (fun () ->
      match current with
      | Some m when Lock_mode.covers m mode ->
          Bess_util.Stats.bump t.c.regrants;
          settle t e ~txn r;
          `Granted
      | _ ->
          let is_upgrade = Option.is_some current in
          if (not (conflicts e ~txn want)) && (is_upgrade || not (blocked_by_queue t e ~txn r))
          then begin
            e.granted <- (txn, want) :: Lock_mode.remove_holder txn e.granted;
            settle t e ~txn r;
            if not is_upgrade then record_held t ~txn r;
            Bess_util.Stats.bump t.c.grants;
            `Granted
          end
          else begin
            let w =
              match queued t e ~txn r with
              | Some w -> w
              | None ->
                  Bess_util.Stats.bump t.c.blocks;
                  enqueue_waiter t e ~txn r want
            in
            let give_up outcome counter verdict =
              remove_waiter t e w ~outcome;
              Bess_util.Stats.bump counter;
              if entry_empty e then drop_entry t e;
              verdict
            in
            match detect with
            | `Graph ->
                if creates_cycle t ~txn then give_up "deadlock" t.c.deadlocks `Deadlock
                else `Blocked
            | `Timeout ->
                if Span.now_ns () - w.w_enqueued_ns >= timeout_ns then
                  give_up "timeout" t.c.timeouts `Timeout
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
        let current = Lock_mode.holder_mode w.w_txn e.granted in
        let want = match current with Some m -> Lock_mode.sup m w.w_mode | None -> w.w_mode in
        w.w_woken_ns <- Span.now_ns ();
        observe_wait t w;
        e.granted <- (w.w_txn, want) :: Lock_mode.remove_holder w.w_txn e.granted;
        if Option.is_none current then record_held t ~txn:w.w_txn r;
        remove_waiter t e w ~outcome:"handoff";
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

(* Release everything held by [txn] (strict 2PL: only at commit/abort),
   in acquisition order. Cost is O(resources the transaction holds or
   waits on), not O(lock table): the per-txn wait list replaces the old
   whole-table scan for ghost waiters (requests still queued on resources
   the transaction never got — those would block later requesters in
   FIFO order, and the transactions queued behind them must be woken or
   they stall forever, since no release on those resources is coming).

   Returns the transactions granted in place (their wake hooks already
   fired), each once, in the order they were first granted. *)
let release_all t ~txn =
  let woken = ref [] in
  let scanned = ref 0 in
  let note_woken w_txn =
    if not (List.exists (fun x -> x = w_txn) !woken) then woken := w_txn :: !woken
  in
  let visit r =
    incr scanned;
    let i = Int_map.find t.index r in
    if i >= 0 then begin
      let e = t.pool.(i) in
      e.granted <- Lock_mode.remove_holder txn e.granted;
      (match queued t e ~txn r with
      | Some w -> remove_waiter t e w ~outcome:"released"
      | None -> ());
      List.iter note_woken (grant_scan t e r);
      if entry_empty e then drop_entry t e
    end
  in
  (match Int_tbl.find_opt t.held txn with
  | None -> ()
  | Some resources ->
      List.iter visit (List.rev resources);
      Int_tbl.remove t.held txn);
  (* The list is a snapshot: [visit] edits the table through
     [remove_waiter]. *)
  List.iter (fun w -> visit w.w_res) (txn_list t.waits txn);
  Bess_util.Stats.bump t.c.release_alls;
  Bess_util.Stats.bump_by t.c.release_scan_entries !scanned;
  List.rev !woken

let held_resources t ~txn = List.rev (txn_list t.held txn)

let waiters t r =
  let i = Int_map.find t.index r in
  if i < 0 then []
  else begin
    let acc = ref [] in
    iter_live t.pool.(i) (fun w -> acc := (w.w_txn, w.w_mode) :: !acc);
    List.rev !acc
  end

let n_locks t = Int_map.length t.index
