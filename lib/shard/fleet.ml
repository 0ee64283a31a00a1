(* Closed-loop client fleets against the shard ring, on the
   discrete-event scheduler: the multi-shard analogue of
   {!Bess_sched.Driver}. Each client thinks, runs one global
   transaction (single-shard, or cross-shard with probability
   [cross_fraction]), and only then thinks again -- offered load backs
   off as 2PC latency grows. Blocked attempts retry the SAME drawn
   writes after a jittered backoff, so a retry is a delivery question,
   never a different transaction.

   Determinism: per-client splitmix64 streams split off the config
   seed in client order (jitter has its own stream), the event heap's
   total order, and the shard plane's own deterministic rids. The
   result fingerprint folds the outcome counts with the CRC of every
   shard's working set, so equal seeds must replay byte-for-byte. *)

module Sched = Bess_sched.Sched
module Driver = Bess_sched.Driver
module Span = Bess_obs.Span
module Stats = Bess_util.Stats
module Prng = Bess_util.Prng

(* Base backoff after a blocked attempt: doubled per retry up to 32x,
   plus up to as much again of jitter. *)
let retry_ns = 100_000

type config = {
  n_clients : int;
  txns_per_client : int;
  cross_fraction : float; (* probability an attempt spans two shards *)
  zipf_theta : float; (* page-rank skew within a shard *)
  think_ns : int;
  max_retries : int;
  seed : int;
}

let default =
  {
    n_clients = 8;
    txns_per_client = 25;
    cross_fraction = 0.2;
    zipf_theta = 0.0;
    think_ns = 200_000;
    max_retries = 12;
    seed = 42;
  }

type result = {
  f_commits : int;
  f_cross_commits : int;
  f_aborts : int;
  f_give_ups : int;
  f_indeterminate : int;
  f_events : int;
  f_sim_ns : int;
  f_fingerprint : string;
}

let throughput r =
  if r.f_sim_ns <= 0 then 0.0
  else float_of_int r.f_commits *. 1e9 /. float_of_int r.f_sim_ns

type client = {
  c_id : int;
  c_prng : Prng.t;
  c_jitter : Prng.t;
  mutable c_left : int;
}

let run ?sched (sh : Shard.t) cfg =
  if cfg.n_clients <= 0 then invalid_arg "Fleet.run: n_clients must be positive";
  let sched = match sched with Some s -> s | None -> Sched.create () in
  let st = Sched.stats sched in
  let c_commits = Stats.counter st "sched.commits" in
  let c_aborts = Stats.counter st "sched.aborts" in
  let n_shards = Shard.n_shards sh in
  let pick_rank =
    Driver.make_picker ~zipf_theta:cfg.zipf_theta ~hot_fraction:0.0 ~hot_pages:0
      ~n:(Shard.pages_per_shard sh)
  in
  let commits = ref 0 and cross_commits = ref 0 and aborts = ref 0 in
  let give_ups = ref 0 and indeterminate = ref 0 in
  let t0 = Span.now_ns () in
  let last_ns = ref t0 in
  let touch () = last_ns := Span.now_ns () in
  let events0 = Sched.events_run sched in
  let master = Prng.create cfg.seed in
  let clients =
    Array.init cfg.n_clients (fun i ->
        let prng = Prng.split master in
        { c_id = 10_000 + i; c_prng = prng; c_jitter = Prng.split prng;
          c_left = cfg.txns_per_client })
  in
  (* One drawn attempt: the involved shards and, per shard, one page
     rank and a fresh 8-byte value. Kept across blocked retries. *)
  let draw_writes c =
    let primary = Prng.int c.c_prng n_shards in
    let shards =
      if n_shards > 1 && Prng.float c.c_prng < cfg.cross_fraction then begin
        let other = (primary + 1 + Prng.int c.c_prng (n_shards - 1)) mod n_shards in
        [ primary; other ]
      end
      else [ primary ]
    in
    List.map (fun s -> (s, pick_rank c.c_prng, 0, Prng.bytes c.c_prng 8)) shards
  in
  let backoff c ~retries =
    let base = retry_ns * (1 lsl Stdlib.min retries 5) in
    base + Prng.int c.c_jitter (Stdlib.max 1 base)
  in
  let think c = Driver.exp_think ~mean_ns:cfg.think_ns c.c_prng in
  (* The sched.txn root span covers the whole attempt, blocked retries
     included, so {!Bess_obs.Critpath} decomposes it into the 2pc
     prepare/decide windows, net time and backoff. *)
  let rec start c =
    touch ();
    if c.c_left > 0 then begin
      let span =
        if Span.enabled () then
          Span.start ~root:true
            ~attrs:[ ("client", string_of_int c.c_id) ]
            ~kind:"sched.txn" ()
        else Span.none
      in
      attempt c ~span ~writes:(draw_writes c) ~retries:0
    end
  and finish c ~span ~outcome =
    Span.finish ~attrs:[ ("outcome", outcome) ] span;
    next c
  and attempt c ~span ~writes ~retries =
    touch ();
    let cross = List.length (List.sort_uniq compare (List.map (fun (s, _, _, _) -> s) writes)) > 1 in
    (* Re-enter the root for this event segment so the 2pc/net/backoff
       children opened inside the attempt parent to it. *)
    match Span.with_handle span (fun () -> Shard.txn sh ~client:c.c_id ~writes ()) with
    | `Committed ->
        incr commits;
        if cross then incr cross_commits;
        Stats.bump c_commits;
        finish c ~span ~outcome:"commit"
    | `Aborted ->
        incr aborts;
        Stats.bump c_aborts;
        finish c ~span ~outcome:"abort"
    | `Blocked ->
        if retries >= cfg.max_retries then begin
          incr give_ups;
          Stats.incr st "sched.give_ups";
          finish c ~span ~outcome:"give_up"
        end
        else
          Sched.schedule sched ~after:(backoff c ~retries) (fun () ->
              attempt c ~span ~writes ~retries:(retries + 1))
    | exception Twopc.Crashed ->
        (* The coordinator died mid-commit with participants prepared.
           Bring it back, let it re-drive what it decided, and resolve
           the survivors by query so their locks don't starve the rest
           of the fleet. The attempt's outcome is indeterminate. *)
        ignore (Twopc.recover (Shard.coord sh));
        ignore (Shard.resolve_in_doubt sh);
        incr indeterminate;
        Stats.incr st "sched.indeterminate";
        finish c ~span ~outcome:"indeterminate"
  and next c =
    c.c_left <- c.c_left - 1;
    if c.c_left > 0 then Sched.schedule sched ~after:(think c) (fun () -> start c)
  in
  Array.iter (fun c -> Sched.schedule sched ~after:(think c) (fun () -> start c)) clients;
  ignore (Sched.run sched);
  let fingerprint =
    Fmt.str "c%d/x%d/a%d/g%d/i%d|img:%08x" !commits !cross_commits !aborts !give_ups
      !indeterminate (Shard.images_crc sh)
  in
  {
    f_commits = !commits;
    f_cross_commits = !cross_commits;
    f_aborts = !aborts;
    f_give_ups = !give_ups;
    f_indeterminate = !indeterminate;
    f_events = Sched.events_run sched - events0;
    f_sim_ns = !last_ns - t0;
    f_fingerprint = fingerprint;
  }
