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
   [sched.lock_wakeups]). Each park also schedules one deadline event
   [Lock_mgr.timeout_ns] later; if the park is still live when it fires,
   the client re-polls, and under [`Timeout] detection that re-poll
   gives the attempt up.

   Determinism: per-client splitmix64 streams split off the config seed
   in client order, plus the heap's (tick, seq) total order. Nothing
   reads wall time. *)

module Span = Bess_obs.Span
module Stats = Bess_util.Stats
module Prng = Bess_util.Prng
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode
module Page_id = Bess_cache.Page_id

(* Modeled in-transaction work between the lock grant and the commit. *)
let txn_work_ns = 5_000

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

(* The Zipf table is O(n) to build, so it is built once and shared:
   clients draw through it with their own streams. Rank i maps to
   working-set index i — popularity order is working-set order. *)
let make_picker ~zipf_theta ~hot_fraction ~hot_pages ~n =
  if n <= 0 then invalid_arg "Driver.make_picker: empty working set";
  let zipf = if zipf_theta <= 0.0 then None else Some (Prng.zipf_table ~n ~theta:zipf_theta) in
  fun prng ->
    if hot_pages > 0 && hot_fraction > 0.0 && Prng.float prng < hot_fraction then
      Prng.int prng (Stdlib.min hot_pages n)
    else
      match zipf with
      | None -> Prng.int prng n
      | Some table -> Prng.zipf_draw prng table

let exp_think ~mean_ns prng =
  if mean_ns <= 0 then 0
  else int_of_float (-.float_of_int mean_ns *. log (1.0 -. Prng.float prng))

type client = {
  c_id : int;
  c_prng : Prng.t;
  mutable c_connected : bool;
  mutable c_left : int; (* transaction attempts remaining *)
  mutable c_park : int; (* generation token: stale wakes/deadlines no-op *)
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
  let h_commit_latency = Stats.hist st "sched.commit_latency_ns" in
  let h_txn_latency = Stats.hist st "sched.txn_latency_ns" in
  let commits = ref 0 and aborts = ref 0 and give_ups = ref 0 in
  let indeterminate = ref 0 and disconnects = ref 0 and reconnects = ref 0 in
  let t0 = Span.now_ns () in
  (* The run's simulated span ends at its last *state-changing* event:
     a deadline whose park token went stale is a tombstone, and the heap
     draining those after the final commit must not stretch [r_sim_ns].
     Every real handler touches this. *)
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
        (* Each client stream starts one draw in: the seeds pinned by
           the tests and benchmarks were recorded with that offset. *)
        ignore (Prng.split prng);
        { c_id = 10_000 + i;
          c_prng = prng;
          c_connected = true;
          c_left = cfg.txns_per_client;
          c_park = 0 })
  in
  let churn_roll c = cfg.churn > 0.0 && Prng.float c.c_prng < cfg.churn in
  (* Per-attempt tracing state: the sched.txn root span spanning the
     whole attempt (opened across events via [Span.with_handle]), the
     durability-ticket wait child, and the scheduler lag accrued by this
     attempt's events. The root carries the accumulated lag and the
     outcome as attributes, which is what {!Bess_obs.Critpath}
     decomposes; a parked lock wait shows up as root self time that the
     lock manager's [lock.wait] root relabels. *)
  let module A = struct
    type t = {
      mutable a_span : Span.handle;
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
    { A.a_span; a_ticket = Span.none; a_lag = Sched.current_lag_ns sched }
  in
  let accrue_lag (a : A.t) = a.A.a_lag <- a.A.a_lag + Sched.current_lag_ns sched in
  let close_attempt (a : A.t) ~outcome =
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
            attempt c ~a ~txn ~t_begin:(Span.now_ns ()) ~page:(pick_page c.c_prng))
      end
    end
  and attempt c ~a ~txn ~t_begin ~page =
    let pid = pages.(page) in
    let r = Lock_mgr.page_resource ~area:pid.Page_id.area ~page:pid.Page_id.page in
    c.c_park <- c.c_park + 1;
    let park = c.c_park in
    (* Re-poll as an event of its own. The wake and the deadline race
       for one park; whichever runs first moves the token on, so the
       other no-ops. *)
    let resume () =
      touch ();
      accrue_lag a;
      Span.with_handle a.A.a_span (fun () -> attempt c ~a ~txn ~t_begin ~page)
    in
    let on_wake () =
      (* Fires synchronously inside the releasing transaction's event,
         with the lock already transferred to us in place. Hop back onto
         the heap so the resumed attempt runs as its own event (zero
         simulated dead time: the hop lands at the current tick). *)
      if c.c_park = park then begin
        c.c_park <- c.c_park + 1;
        Stats.bump c_lock_wakeups;
        Sched.schedule sched ~after:0 resume
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
        (* Park on the wake, with one deadline behind it: a live park
           re-polls [timeout_ns] later, which under [`Timeout] detection
           gives the attempt up and under [`Graph] parks it again. *)
        Stats.bump c_lock_parks;
        Sched.schedule sched ~after:Lock_mgr.timeout_ns (fun () ->
            if c.c_park = park then resume ())
    | `Timeout ->
        Bess.Server.abort_client server ~txn;
        incr give_ups;
        Stats.bump c_give_ups;
        finish_attempt c ~a ~outcome:"give_up"
    | `Deadlock ->
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
