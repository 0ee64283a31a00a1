(* Closed-loop workload driver: clients as resumable state machines on
   the event heap.

   Each client cycles think -> begin -> lock -> work -> commit -> ack ->
   think; every arrow is an event, so thousands to hundreds of thousands
   of clients interleave on one heap with no threads. The loop is
   *closed*: a client issues its next transaction only after the
   previous acknowledgement (or failure), so offered load backs off as
   latency grows, the way real attached clients behave.

   Commit uses the split acknowledgement path (commit_client_begin, then
   an await event ack_delay_ns later), so concurrent committers register
   durability tickets inside one group-commit window and the force
   scheduler can coalesce them — the behaviour E14 measures.

   Blocked lock requests park instead of polling: the client subscribes
   to the lock manager's wake-on-release handoff via
   [Server.lock_async] and hops back onto the heap only when the lock
   has already been transferred to it in place ([sched.lock_parks] /
   [sched.lock_wakeups]). A decorrelated-jitter timer is kept per park
   purely as a [`Timeout]/[`Deadlock] recovery guard — it starts an
   order of magnitude later than a poll interval and almost never fires
   ([sched.lock_retries]); the jitter keeps equal-seed cohorts from
   re-polling in lockstep.

   Determinism: per-client splitmix64 streams split off the config seed
   in client order (a separate per-client jitter stream keeps guard
   timing from perturbing the workload draws), plus the heap's
   (tick, seq) total order. Nothing reads wall time. *)

module Span = Bess_obs.Span
module Stats = Bess_util.Stats
module Prng = Bess_util.Prng
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode
module Page_id = Bess_cache.Page_id

(* Modeled in-transaction work between the lock grant and the commit. *)
let txn_work_ns = 5_000

(* The recovery guard behind a parked lock request: its first delay is
   drawn from [guard_base_ns] up, it escalates with decorrelated jitter
   to an 8x cap, and after [max_lock_retries] fires a blocked attempt
   gives up. *)
let guard_base_ns = 800_000
let max_lock_retries = 12

type config = {
  n_clients : int;
  txns_per_client : int;
  zipf_theta : float;
  hot_fraction : float;
  hot_pages : int;
  think_ns : int;
  ack_delay_ns : int;
  churn : float;
  reconnect_ns : int;
  seed : int;
}

let default =
  {
    n_clients = 16;
    txns_per_client = 50;
    zipf_theta = 0.0;
    hot_fraction = 0.0;
    hot_pages = 0;
    think_ns = 200_000;
    ack_delay_ns = 20_000;
    churn = 0.0;
    reconnect_ns = 1_000_000;
    seed = 42;
  }

type result = {
  r_commits : int;
  r_aborts : int;
  r_give_ups : int;
  r_indeterminate : int;
  r_disconnects : int;
  r_reconnects : int;
  r_events : int;
  r_sim_ns : int;
  r_commit_p50_ns : int;
  r_commit_p99_ns : int;
}

let throughput r =
  if r.r_sim_ns <= 0 then 0.0
  else float_of_int r.r_commits *. 1e9 /. float_of_int r.r_sim_ns

(* ---- Workload-shape helpers ------------------------------------------- *)

(* Shared with the multi-shard fleet (Bess_shard.Fleet): pure functions
   of the supplied stream, so equal seeds draw equal workloads whether a
   run is single-server or sharded. *)

(* The Zipf CDF is O(n) to build, so it is built once and shared:
   clients draw through it with their own streams. Rank i maps to
   working-set index i — popularity order is working-set order. *)
let zipf_cdf ~theta n =
  if theta <= 0.0 || n <= 0 then None
  else begin
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
      cdf.(i) <- !acc
    done;
    Some cdf
  end

let make_picker ~zipf_theta ~hot_fraction ~hot_pages ~n =
  if n <= 0 then invalid_arg "Driver.make_picker: empty working set";
  let cdf = zipf_cdf ~theta:zipf_theta n in
  fun prng ->
    if hot_pages > 0 && hot_fraction > 0.0 && Prng.float prng < hot_fraction then
      Prng.int prng (Stdlib.min hot_pages n)
    else
      match cdf with
      | None -> Prng.int prng n
      | Some cdf ->
          let u = Prng.float prng *. cdf.(n - 1) in
          let rec search lo hi =
            if lo >= hi then lo
            else
              let mid = (lo + hi) / 2 in
              if cdf.(mid) < u then search (mid + 1) hi else search lo mid
          in
          search 0 (n - 1)

let exp_think ~mean_ns prng =
  if mean_ns <= 0 then 0
  else int_of_float (-.float_of_int mean_ns *. log (1.0 -. Prng.float prng))

type client = {
  c_id : int;
  c_prng : Prng.t;
  c_jitter : Prng.t; (* guard-timer jitter only: keeps workload draws stable *)
  mutable c_connected : bool;
  mutable c_left : int; (* transaction attempts remaining *)
  mutable c_park : int; (* generation token: stale wakes/guards no-op *)
  mutable c_backoff_ns : int; (* previous guard delay (decorrelated jitter state) *)
}

(* Segments cap at one extent of contiguous pages, so the working set is
   built from 128-page segments. *)
let seed_working_set db ~n_pages =
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let pages = ref [] in
  let remaining = ref (Stdlib.max 1 n_pages) in
  while !remaining > 0 do
    let n = Stdlib.min 128 !remaining in
    let d = (Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:n ()).data_disk in
    for i = 0 to n - 1 do
      pages := { Page_id.area = d.area; page = d.first_page + i } :: !pages
    done;
    remaining := !remaining - n
  done;
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  Array.of_list (List.rev !pages)

let run ?sched server ~pages cfg =
  if cfg.n_clients <= 0 then invalid_arg "Driver.run: n_clients must be positive";
  let n_pages = Array.length pages in
  if n_pages = 0 then invalid_arg "Driver.run: pages must be non-empty";
  let sched = match sched with Some s -> s | None -> Sched.create () in
  let st = Sched.stats sched in
  ignore (Stats.histogram st "sched.commit_latency_ns");
  ignore (Stats.histogram st "sched.txn_latency_ns");
  let c_commits = Stats.counter st "sched.commits" in
  let c_aborts = Stats.counter st "sched.aborts" in
  let c_give_ups = Stats.counter st "sched.give_ups" in
  let c_indeterminate = Stats.counter st "sched.indeterminate" in
  let c_lock_wakeups = Stats.counter st "sched.lock_wakeups" in
  let c_lock_parks = Stats.counter st "sched.lock_parks" in
  let c_lock_retries = Stats.counter st "sched.lock_retries" in
  let h_commit_latency = Stats.hist st "sched.commit_latency_ns" in
  let h_txn_latency = Stats.hist st "sched.txn_latency_ns" in
  let commits = ref 0 and aborts = ref 0 and give_ups = ref 0 in
  let indeterminate = ref 0 and disconnects = ref 0 and reconnects = ref 0 in
  let t0 = Span.now_ns () in
  (* The run's simulated span ends at its last *state-changing* event:
     a guard timer whose park token went stale is a tombstone, and the
     heap draining those after the final commit must not stretch
     [r_sim_ns] (it would understate throughput for whichever variant
     schedules the longer guards). Every real handler touches this. *)
  let last_ns = ref t0 in
  let touch () = last_ns := Span.now_ns () in
  let events0 = Sched.events_run sched in
  let pick_page =
    make_picker ~zipf_theta:cfg.zipf_theta ~hot_fraction:cfg.hot_fraction
      ~hot_pages:cfg.hot_pages ~n:n_pages
  in
  let think prng = exp_think ~mean_ns:cfg.think_ns prng in
  let sink _ _ = `Dropped in
  let master = Prng.create cfg.seed in
  let clients =
    Array.init cfg.n_clients (fun i ->
        let prng = Prng.split master in
        { c_id = 10_000 + i;
          c_prng = prng;
          c_jitter = Prng.split prng;
          c_connected = true;
          c_left = cfg.txns_per_client;
          c_park = 0;
          c_backoff_ns = 0 })
  in
  let churn_roll c = cfg.churn > 0.0 && Prng.float c.c_prng < cfg.churn in
  (* Guard-timer delay with decorrelated jitter (base..3x previous,
     capped), drawn from the client's own jitter stream: equal-seed
     cohorts do not re-poll in lockstep, yet every delay is a pure
     function of the master seed. The timer is only [`Timeout]/[`Deadlock]
     recovery behind a guaranteed wake, so it starts an order of
     magnitude later than a poll interval would. *)
  let next_backoff c ~retries =
    if retries = 0 then c.c_backoff_ns <- 0;
    let base = guard_base_ns in
    let cap = base * 8 in
    let prev = Stdlib.max base c.c_backoff_ns in
    let d = Stdlib.min cap (base + Prng.int c.c_jitter (Stdlib.max 1 ((prev * 3) - base))) in
    c.c_backoff_ns <- d;
    d
  in
  (* Per-attempt tracing state: the sched.txn root span spanning the
     whole attempt (opened across events via [Span.with_handle]), the
     currently open backoff child, the durability-ticket wait child,
     and the scheduler lag accrued by this attempt's events. The root
     carries the accumulated lag and the outcome as attributes, which
     is what {!Bess_obs.Critpath} decomposes. *)
  let module A = struct
    type t = {
      mutable a_span : Span.handle;
      mutable a_backoff : Span.handle;
      mutable a_ticket : Span.handle;
      mutable a_lag : int;
    }
  end in
  let new_attempt c =
    let a_span =
      if Span.enabled () then
        Span.start ~root:true
          ~attrs:[ ("client", string_of_int c.c_id) ]
          ~kind:"sched.txn" ()
      else Span.none
    in
    { A.a_span; a_backoff = Span.none; a_ticket = Span.none; a_lag = Sched.current_lag_ns sched }
  in
  let accrue_lag (a : A.t) = a.A.a_lag <- a.A.a_lag + Sched.current_lag_ns sched in
  let close_attempt (a : A.t) ~outcome =
    Span.finish a.A.a_backoff;
    a.A.a_backoff <- Span.none;
    Span.finish a.A.a_ticket;
    a.A.a_ticket <- Span.none;
    Span.finish
      ~attrs:[ ("outcome", outcome); ("sched_lag_ns", string_of_int a.A.a_lag) ]
      a.A.a_span;
    a.A.a_span <- Span.none
  in
  let rec start c =
    touch ();
    if c.c_left > 0 && c.c_connected then begin
      if churn_roll c then disconnect c ~holding:false
      else begin
        let a = new_attempt c in
        Span.with_handle a.A.a_span (fun () ->
            let txn = Bess.Server.begin_txn server ~client:c.c_id in
            Span.annotate_handle a.A.a_span "txn" (string_of_int txn);
            attempt c ~a ~txn ~t_begin:(Span.now_ns ()) ~page:(pick_page c.c_prng)
              ~retries:0)
      end
    end
  and attempt c ~a ~txn ~t_begin ~page ~retries =
    let pid = pages.(page) in
    let r = Lock_mgr.page_resource ~area:pid.Page_id.area ~page:pid.Page_id.page in
    c.c_park <- c.c_park + 1;
    let park = c.c_park in
    let resume ~retries () =
      touch ();
      accrue_lag a;
      Span.finish a.A.a_backoff;
      a.A.a_backoff <- Span.none;
      Span.with_handle a.A.a_span (fun () -> attempt c ~a ~txn ~t_begin ~page ~retries)
    in
    let on_wake () =
      (* Fires synchronously inside the releasing transaction's event,
         with the lock already transferred to us in place. Invalidate
         the pending guard timer and hop back onto the heap so the
         resumed attempt runs as its own event (zero simulated dead
         time: the hop lands at the current tick). *)
      if c.c_park = park then begin
        c.c_park <- c.c_park + 1;
        Stats.bump c_lock_wakeups;
        Sched.schedule sched ~after:0 (resume ~retries)
      end
    in
    match Bess.Server.lock_async server ~txn r Lock_mode.X ~on_wake with
    | `Granted ->
        if churn_roll c then begin
          (* Disconnect while holding the lock: the interrupted attempt
             is consumed, and the server must free everything — the
             no-lock-leak test watches this path. The cleanup runs
             before the root closes so its server spans are attributed
             to the churned attempt. *)
          c.c_left <- c.c_left - 1;
          disconnect c ~holding:true;
          close_attempt a ~outcome:"churn"
        end
        else
          Sched.schedule sched ~after:txn_work_ns (fun () ->
              touch ();
              accrue_lag a;
              Span.with_handle a.A.a_span (fun () -> commit_txn c ~a ~txn ~t_begin ~page))
    | `Blocked ->
        if retries >= max_lock_retries then begin
          (* The abort also purges our queued waiter and drops the wake
             subscription just registered above. *)
          Bess.Server.abort_client server ~txn;
          incr give_ups;
          Stats.bump c_give_ups;
          finish_attempt c ~a ~outcome:"give_up"
        end
        else begin
          (* Park on the wake; the timer below is only the recovery
             guard. It re-polls so the lock manager's logical clock can
             return the [`Timeout] verdict, and it is the sole path
             forward for waits no wake can resolve (a block caused by
             cached-copy callbacks alone). *)
          Stats.bump c_lock_parks;
          a.A.a_backoff <-
            Span.start ~attrs:[ ("retries", string_of_int retries) ] ~kind:"client.backoff" ();
          Sched.schedule sched ~after:(next_backoff c ~retries) (fun () ->
              if c.c_park = park then begin
                Stats.bump c_lock_retries;
                resume ~retries:(retries + 1) ()
              end)
        end
    | `Deadlock | `Timeout ->
        Bess.Server.abort_client server ~txn;
        incr aborts;
        Stats.bump c_aborts;
        finish_attempt c ~a ~outcome:"abort"
  and commit_txn c ~a ~txn ~t_begin ~page =
    let pid = pages.(page) in
    match
      let before = Bytes.create 8 in
      Bess.Server.read_into server pid ~off:0 before ~dst_off:0 ~len:8;
      let after = Prng.bytes c.c_prng 8 in
      let u = { Bess.Server.page = pid; offset = 0; before; after } in
      Bess.Server.commit_client_begin server ~txn ~updates:[ u ]
    with
    | exception _ ->
        (* Injected fault with the outcome in doubt: resolve
           pessimistically (abort is idempotent if the commit point was
           in fact passed). *)
        (try Bess.Server.abort_client server ~txn with _ -> ());
        incr indeterminate;
        Stats.bump c_indeterminate;
        finish_attempt c ~a ~outcome:"indeterminate"
    | `Lock_violation ->
        Bess.Server.abort_client server ~txn;
        incr aborts;
        Stats.bump c_aborts;
        finish_attempt c ~a ~outcome:"abort"
    | `Committed ticket ->
        let t_commit = Span.now_ns () in
        (* Open the ticket wait: registration to acknowledged durable.
           The group-commit force this commit rides on lands inside
           this window, so blame for the amortised force lands on WAL
           rather than on unexplained self time. *)
        a.A.a_ticket <- Span.start ~kind:"wal.ticket_wait" ();
        Sched.schedule sched ~after:cfg.ack_delay_ns (fun () ->
            touch ();
            accrue_lag a;
            Span.with_handle a.A.a_span (fun () -> ack c ~a ~ticket ~t_begin ~t_commit))
  and ack c ~a ~ticket ~t_begin ~t_commit =
    (match Bess.Server.await_commit server ticket with
    | () ->
        let now = Span.now_ns () in
        incr commits;
        Stats.bump c_commits;
        Stats.record h_commit_latency (now - t_commit);
        Stats.record h_txn_latency (now - t_begin);
        Span.finish a.A.a_ticket;
        a.A.a_ticket <- Span.none;
        finish_attempt c ~a ~outcome:"commit"
    | exception _ ->
        (* Ticket lost to a crash between registration and ack. *)
        incr indeterminate;
        Stats.bump c_indeterminate;
        finish_attempt c ~a ~outcome:"indeterminate")
  and finish_attempt c ~a ~outcome =
    close_attempt a ~outcome;
    c.c_left <- c.c_left - 1;
    if c.c_left > 0 then Sched.schedule sched ~after:(think c.c_prng) (fun () -> start c)
  and disconnect c ~holding =
    if holding then Stats.incr st "sched.churn_holding_locks";
    ignore (Bess.Server.abort_client_txns server ~client:c.c_id);
    Bess.Server.disconnect_client server ~client:c.c_id;
    c.c_connected <- false;
    incr disconnects;
    Stats.incr st "sched.disconnects";
    Sched.schedule sched ~after:cfg.reconnect_ns (fun () -> reconnect c)
  and reconnect c =
    touch ();
    Bess.Server.connect_client server ~client:c.c_id ~sink;
    c.c_connected <- true;
    incr reconnects;
    Stats.incr st "sched.reconnects";
    if c.c_left > 0 then Sched.schedule sched ~after:(think c.c_prng) (fun () -> start c)
  in
  Array.iter
    (fun c ->
      Bess.Server.connect_client server ~client:c.c_id ~sink;
      (* Stagger first arrivals over a think time so the heap does not
         open on an n_clients-deep convoy at tick zero. *)
      Sched.schedule sched ~after:(think c.c_prng) (fun () -> start c))
    clients;
  ignore (Sched.run sched);
  let p q =
    match Stats.find_histogram st "sched.commit_latency_ns" with
    | Some h when !commits > 0 -> Bess_util.Histogram.percentile h q
    | _ -> 0
  in
  {
    r_commits = !commits;
    r_aborts = !aborts;
    r_give_ups = !give_ups;
    r_indeterminate = !indeterminate;
    r_disconnects = !disconnects;
    r_reconnects = !reconnects;
    r_events = Sched.events_run sched - events0;
    r_sim_ns = !last_ns - t0;
    r_commit_p50_ns = p 50.0;
    r_commit_p99_ns = p 99.0;
  }
