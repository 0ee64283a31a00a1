(* Shard router + presumed-abort 2PC coordinator: routing by the OID
   host field, cross-shard commit/abort over the wire, the participant
   no-vote path (unilateral abort, satellite of ISSUE 9), in-doubt
   transactions keeping their X locks across restart, idempotent
   duplicate decisions, and both coordinator-crash windows (undecided =>
   presumed abort; decided => re-drive). *)

module Fault = Bess_fault.Fault
module Net = Bess_net.Net
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode
module Page_id = Bess_cache.Page_id
module Remote = Bess.Remote
module F = Bess.Fetcher
module Shard = Bess_shard.Shard
module Twopc = Bess_shard.Twopc

let i64 v =
  let b = Bytes.create 8 in
  Bess_util.Codec.set_i64 b 0 v;
  b

(* Fetch [page] X-locked into a fresh page buffer. *)
let fetch_x (f : F.t) ~txn page =
  let into = Bytes.create 4096 in
  f.F.f_fetch_page ~txn page ~mode:Lock_mode.X ~into;
  into

let slot_value sh ~shard ~rank ~offset =
  Bess_util.Codec.get_i64 (Shard.page_image sh shard rank) offset

let fresh f = Bess_obs.Registry.with_fresh (fun () -> Fun.protect ~finally:Fault.reset f)

(* ---- Routing ------------------------------------------------------------- *)

let test_routing () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:3 () in
  List.iter
    (fun host ->
      let oid = Bess.Oid.make ~host ~db:1 ~seg:2 ~slot:3 ~uniq:4 in
      let want = (host - 1) mod 3 in
      Alcotest.(check int) (Printf.sprintf "host %d shard" host) want (Shard.shard_of_oid sh oid);
      Alcotest.(check int)
        (Printf.sprintf "host %d endpoint" host)
        (want + 1)
        (Shard.endpoint_of_oid sh oid);
      Alcotest.(check int)
        (Printf.sprintf "host %d server" host)
        (want + 1)
        (Bess.Server.id (Shard.server_of_oid sh oid)))
    [ 1; 2; 3; 4; 5; 6 ]

(* ---- Commit and abort over the wire -------------------------------------- *)

let test_cross_shard_commit () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let r = Shard.txn sh ~client:500 ~writes:[ (0, 0, 0, i64 11); (1, 0, 8, i64 22) ] () in
  Alcotest.(check bool) "committed" true (r = `Committed);
  Alcotest.(check int) "shard 0 slot" 11 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "shard 1 slot" 22 (slot_value sh ~shard:1 ~rank:0 ~offset:8);
  Alcotest.(check int) "no locks held" 0 (Shard.locks_held sh);
  Alcotest.(check int) "decision acked and retired" 0 (Twopc.unresolved (Shard.coord sh));
  List.iter
    (fun (ep, tx) ->
      Alcotest.(check bool) "decision durable" true
        (Twopc.has_decision (Shard.coord sh) ~shard:ep ~txn:tx))
    (Shard.last_parts sh);
  (* The decide fan-out fed the 2pc critpath phase via its span kind. *)
  Alcotest.(check bool) "2pc phase exists" true
    (List.mem "2pc" (List.map Bess_obs.Critpath.phase_name Bess_obs.Critpath.phases))

let test_single_shard_commit () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let r = Shard.txn sh ~client:501 ~writes:[ (1, 0, 16, i64 33) ] () in
  Alcotest.(check bool) "committed" true (r = `Committed);
  Alcotest.(check int) "value landed" 33 (slot_value sh ~shard:1 ~rank:0 ~offset:16);
  Alcotest.(check int) "untouched shard clean" 0 (slot_value sh ~shard:0 ~rank:0 ~offset:16);
  Alcotest.(check int) "no locks" 0 (Shard.locks_held sh)

(* Satellite: the Fetcher.f_prepare `Vote_no path. A participant that
   cannot vote yes (its updates are not X-covered) must abort the
   transaction unilaterally and release its locks; the coordinator logs
   nothing and aborts the yes-voter with a decide. *)
let test_vote_no_aborts_everywhere () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let net = Shard.net sh in
  let fa = Remote.fetcher net ~client_id:601 ~server_id:(Shard.endpoint sh 0) in
  let fb = Remote.fetcher net ~client_id:601 ~server_id:(Shard.endpoint sh 1) in
  let pa = (Shard.pages sh 0).(0) and pb = (Shard.pages sh 1).(0) in
  let ta = fa.F.f_begin () in
  let bytes = fetch_x fa ~txn:ta pa in
  let ua : Bess.Server.update =
    { page = pa; offset = 0; before = Bytes.sub bytes 0 8; after = i64 91 }
  in
  let tb = fb.F.f_begin () in
  (* No lock fetched on shard 1: the prepare must vote no. *)
  let ub : Bess.Server.update =
    { page = pb; offset = 0; before = Bytes.make 8 '\000'; after = i64 92 }
  in
  Alcotest.(check bool) "A votes yes" true
    (fa.F.f_prepare ~txn:ta ~coordinator:77 [ ua ] = `Vote_yes);
  Alcotest.(check bool) "B votes no" true
    (fb.F.f_prepare ~txn:tb ~coordinator:77 [ ub ] = `Vote_no);
  (* The no-voter aborted unilaterally: transaction gone, locks free. *)
  Alcotest.(check int) "B holds no locks" 0
    (Lock_mgr.n_locks (Bess.Server.locks (Shard.server sh 1)));
  Alcotest.(check (list (pair int int))) "B has nothing prepared" []
    (Bess.Server.prepared_txns (Shard.server sh 1));
  Alcotest.(check int) "B counted the unilateral abort" 1
    (Bess_util.Stats.get (Bess.Server.stats (Shard.server sh 1)) "server.vote_no");
  (* Presumed abort: the coordinator logs nothing and decides abort at
     the yes-voter only. *)
  fa.F.f_decide ~txn:ta `Abort;
  Alcotest.(check int) "A holds no locks" 0
    (Lock_mgr.n_locks (Bess.Server.locks (Shard.server sh 0)));
  Alcotest.(check int) "no write survived on A" 0 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "no write survived on B" 0 (slot_value sh ~shard:1 ~rank:0 ~offset:0)

(* A vote-no inside the full coordinator path: one shard's updates are
   made uncoverable by sabotaging the prepare with a foreign page. *)
let test_coordinator_abort_on_no_vote () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 ~pages_per_shard:2 () in
  let net = Shard.net sh in
  (* Build the parts by hand: begin + lock properly on shard 0, begin
     without locking on shard 1. *)
  let f0 = Remote.fetcher net ~client_id:602 ~server_id:(Shard.endpoint sh 0) in
  let f1 = Remote.fetcher net ~client_id:602 ~server_id:(Shard.endpoint sh 1) in
  let p0 = (Shard.pages sh 0).(0) and p1 = (Shard.pages sh 1).(0) in
  let t0 = f0.F.f_begin () in
  let b0 = fetch_x f0 ~txn:t0 p0 in
  let u0 : Bess.Server.update =
    { page = p0; offset = 0; before = Bytes.sub b0 0 8; after = i64 81 }
  in
  let t1 = f1.F.f_begin () in
  let u1 : Bess.Server.update =
    { page = p1; offset = 0; before = Bytes.make 8 '\000'; after = i64 82 }
  in
  let r =
    Twopc.commit (Shard.coord sh)
      ~parts:[ (Shard.endpoint sh 0, t0, [ u0 ]); (Shard.endpoint sh 1, t1, [ u1 ]) ]
  in
  Alcotest.(check bool) "aborted" true (r = `Aborted);
  Alcotest.(check int) "no locks anywhere" 0 (Shard.locks_held sh);
  Alcotest.(check int) "nothing landed on shard 0" 0 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "nothing landed on shard 1" 0 (slot_value sh ~shard:1 ~rank:0 ~offset:0);
  Alcotest.(check bool) "no decision logged (presumed abort)" false
    (Twopc.has_decision (Shard.coord sh) ~shard:(Shard.endpoint sh 0) ~txn:t0);
  Alcotest.(check int) "nothing pending" 0 (Twopc.unresolved (Shard.coord sh))

(* ---- In-doubt transactions keep their locks across restart --------------- *)

(* Satellite regression: a participant that crashes while prepared must
   come back holding its X locks (strict 2PL across the restart), so no
   one reads its undecided writes; resolution by coordinator query then
   releases them. *)
let test_in_doubt_keeps_locks_across_restart () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  (* Crash shard 1 at the moment both participants are prepared. *)
  let chaos () = Shard.crash_shard sh 1 in
  let r = Shard.txn ~chaos sh ~client:603 ~writes:[ (0, 0, 0, i64 71); (1, 0, 0, i64 72) ] () in
  (* The coordinator decided commit; shard 1 lost its volatile state. *)
  Alcotest.(check bool) "committed" true (r = `Committed);
  let outcome = Shard.recover_shard sh 1 in
  Alcotest.(check int) "one in-doubt transaction" 1 (List.length outcome.in_doubt);
  Alcotest.(check bool) "X locks reacquired" true
    (Bess_util.Stats.get (Bess.Server.stats (Shard.server sh 1)) "server.indoubt_relocks" >= 1);
  (* Another client must NOT get at the undecided write. *)
  let f = Remote.fetcher (Shard.net sh) ~client_id:604 ~server_id:(Shard.endpoint sh 1) in
  let t2 = f.F.f_begin () in
  let p1 = (Shard.pages sh 1).(0) in
  Alcotest.(check bool) "reader blocks on the in-doubt lock" true
    (match fetch_x f ~txn:t2 p1 with
    | exception F.Would_block -> true
    | _ -> false);
  (* Resolution: the decision is durable at the coordinator => commit. *)
  let resolved, unresolved = Shard.resolve_in_doubt sh in
  Alcotest.(check (pair int int)) "resolved by query" (1, 0) (resolved, unresolved);
  let bytes = fetch_x f ~txn:t2 p1 in
  Alcotest.(check int) "committed write visible after resolution" 72
    (Bess_util.Codec.get_i64 bytes 0);
  f.F.f_abort ~txn:t2;
  Alcotest.(check int) "no locks leaked" 0 (Shard.locks_held sh);
  Alcotest.(check int) "nothing in doubt" 0 (Shard.in_doubt sh)

(* ---- Idempotent decisions ------------------------------------------------ *)

let test_duplicate_decide_is_noop () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let r = Shard.txn sh ~client:605 ~writes:[ (0, 0, 0, i64 61); (1, 0, 0, i64 62) ] () in
  Alcotest.(check bool) "committed" true (r = `Committed);
  let coord = Shard.coord sh in
  (* Re-deliver the commit decision with a fresh rid, as a re-drive
     after the dedup window aged would: the server must no-op and still
     acknowledge. *)
  List.iter
    (fun (ep, tx) ->
      match
        Net.call (Shard.net sh) ~src:(Twopc.id coord) ~dst:ep
          (Remote.Decide { rid = 987_654 + ep; txn = tx; commit = true })
      with
      | Remote.R_ok -> ()
      | _ -> Alcotest.fail "duplicate decide not acknowledged")
    (Shard.last_parts sh);
  Alcotest.(check bool) "duplicates counted as no-ops" true
    (Bess_util.Stats.get (Bess.Server.stats (Shard.server sh 0)) "server.decide_noops" >= 1);
  Alcotest.(check int) "values unchanged" 61 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "no locks" 0 (Shard.locks_held sh)

(* ---- Coordinator crash windows ------------------------------------------- *)

let test_coordinator_crash_before_decision_presumes_abort () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  Fault.seed 11;
  Fault.configure "2pc.coord.crash_undecided" (Fault.Plan [ 1 ]);
  (match Shard.txn sh ~client:606 ~writes:[ (0, 0, 0, i64 51); (1, 0, 0, i64 52) ] () with
  | exception Twopc.Crashed -> ()
  | _ -> Alcotest.fail "expected a coordinator crash");
  Fault.reset ();
  Alcotest.(check bool) "coordinator down" false (Twopc.up (Shard.coord sh));
  Alcotest.(check int) "both participants prepared" 2 (Shard.in_doubt sh);
  Alcotest.(check int) "nothing to re-drive" 0 (Twopc.recover (Shard.coord sh));
  let resolved, unresolved = Shard.resolve_in_doubt sh in
  Alcotest.(check (pair int int)) "queries resolve both" (2, 0) (resolved, unresolved);
  Alcotest.(check int) "presumed abort on shard 0" 0 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "presumed abort on shard 1" 0 (slot_value sh ~shard:1 ~rank:0 ~offset:0);
  Alcotest.(check int) "no locks leaked" 0 (Shard.locks_held sh);
  Alcotest.(check bool) "presumed aborts counted" true
    (Bess_util.Stats.get (Twopc.stats (Shard.coord sh)) "2pc.presumed_aborts" >= 2)

let test_coordinator_crash_after_decision_redrives () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  Fault.seed 12;
  Fault.configure "2pc.coord.crash_decided" (Fault.Plan [ 1 ]);
  (match Shard.txn sh ~client:607 ~writes:[ (0, 0, 0, i64 41); (1, 0, 0, i64 42) ] () with
  | exception Twopc.Crashed -> ()
  | _ -> Alcotest.fail "expected a coordinator crash");
  Fault.reset ();
  Alcotest.(check int) "both participants prepared" 2 (Shard.in_doubt sh);
  (* Recovery finds the forced decision and re-drives it to completion. *)
  Alcotest.(check int) "re-drive completes" 0 (Twopc.recover (Shard.coord sh));
  Alcotest.(check int) "commit landed on shard 0" 41 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "commit landed on shard 1" 42 (slot_value sh ~shard:1 ~rank:0 ~offset:0);
  Alcotest.(check int) "nothing in doubt" 0 (Shard.in_doubt sh);
  Alcotest.(check int) "no locks leaked" 0 (Shard.locks_held sh);
  Alcotest.(check bool) "re-drives counted" true
    (Bess_util.Stats.get (Twopc.stats (Shard.coord sh)) "2pc.redrives" >= 1)

(* Every restart skips [Twopc.epoch_gap] gids of 128 request ids each,
   so after some thirty restarts the coordinator's rids pass 2^32. The
   servers' dedup key must still take them: 50 restarts, each after a
   cross-shard commit, then one more commit that must land everywhere. *)
let test_commits_after_many_coordinator_restarts () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let coord = Shard.coord sh in
  let commit v =
    match Shard.txn sh ~client:608 ~writes:[ (0, 0, 0, i64 v); (1, 0, 0, i64 (v + 1)) ] () with
    | `Committed -> ()
    | _ -> Alcotest.failf "commit %d did not commit" v
  in
  for i = 1 to 50 do
    commit i;
    Twopc.crash coord;
    Alcotest.(check int) "nothing to re-drive" 0 (Twopc.recover coord)
  done;
  commit 1_000;
  Alcotest.(check int) "commit landed on shard 0" 1_000 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "commit landed on shard 1" 1_001 (slot_value sh ~shard:1 ~rank:0 ~offset:0);
  Alcotest.(check int) "nothing in doubt" 0 (Shard.in_doubt sh);
  Alcotest.(check int) "no locks leaked" 0 (Shard.locks_held sh)

let test_query_unknown_txn_is_abort () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  match
    Net.call (Shard.net sh) ~src:1 ~dst:(Twopc.id (Shard.coord sh))
      (Remote.Query_decision { rid = 0; shard = 1; txn = 424_242 })
  with
  | Remote.R_decision b -> Alcotest.(check bool) "absent decision means abort" false b
  | _ -> Alcotest.fail "protocol mismatch"

(* The registry's [wal] is a data server's log, never the coordinator's
   decision log: the last shard's store registered last. *)
let test_wal_names_a_shard () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let own =
    Bess_util.Stats.get
      (Bess_wal.Log.stats (Bess.Store.log (Bess.Server.store (Shard.server sh 1))))
      "log.appends"
  in
  let snap = Bess_obs.Registry.counters (Bess_obs.Registry.snapshot ()) in
  Alcotest.(check bool) "the shard logged its seed" true (own > 0);
  Alcotest.(check (option int)) "wal.log.appends is the shard's" (Some own)
    (List.assoc_opt "wal.log.appends" snap)

(* ---- Coordinator restart against a decoding reference ------------------- *)

module Log = Bess_wal.Log
module Log_record = Bess_wal.Log_record

(* What the coordinator's decision log says, read the plain way: every
   record decoded. [decided] holds every participant any Decision
   names; [live] the participants of each gid that no End has
   retired. *)
module Reference = struct
  module Pairs = Set.Make (struct
    type t = int * int

    let compare = compare
  end)

  type t = { decided : Pairs.t; live : (int * int) list list; max_gid : int }

  let of_log log =
    let decided = ref Pairs.empty and live = Hashtbl.create 16 and max_gid = ref 0 in
    Log.iter_frames log (fun _ buf off ->
        match (Log_record.decode_frame buf off).body with
        | Decision { gid; participants } ->
            max_gid := max !max_gid gid;
            List.iter (fun p -> decided := Pairs.add p !decided) participants;
            if participants <> [] then Hashtbl.replace live gid participants
        | End { txn } -> Hashtbl.remove live txn
        | _ -> ());
    { decided = !decided; live = List.of_seq (Hashtbl.to_seq_values live); max_gid = !max_gid }

  (* Gids a re-drive cannot finish: some participant is off the net. *)
  let unfinished r ~down =
    List.length (List.filter (List.exists (fun (ep, _) -> down ep)) r.live)
end

type step =
  | Txn of { writes : (int * int * int) list; victim : int option; fault : string option }
      (** (shard, rank, offset) writes; [victim] leaves the net once the
          votes are in; [fault] is a coordinator crash site to fire *)
  | Up of int
  | Redrive
  | Resolve
  | Restart

let pp_step = function
  | Txn { writes; victim; fault } ->
      Printf.sprintf "Txn %s victim=%s fault=%s"
        (String.concat ";" (List.map (fun (s, r, o) -> Printf.sprintf "%d.%d+%d" s r o) writes))
        (match victim with Some v -> string_of_int v | None -> "-")
        (Option.value fault ~default:"-")
  | Up i -> Printf.sprintf "Up %d" i
  | Redrive -> "Redrive"
  | Resolve -> "Resolve"
  | Restart -> "Restart"

let n_shards = 3

let gen_step =
  let open QCheck.Gen in
  let write = triple (0 -- (n_shards - 1)) (0 -- 7) (map (fun o -> o * 8) (0 -- 3)) in
  let txn =
    map3
      (fun writes victim fault ->
        (* Cross-shard: another shard joins writes that all hit one. *)
        let s0, _, _ = List.hd writes in
        let writes =
          if List.exists (fun (s, _, _) -> s <> s0) writes then writes
          else ((s0 + 1) mod n_shards, 0, 0) :: writes
        in
        Txn { writes; victim; fault })
      (list_size (2 -- 4) write)
      (frequency [ (3, return None); (1, map Option.some (0 -- (n_shards - 1))) ])
      (frequency
         [ (6, return None); (1, return (Some "2pc.coord.crash_undecided"));
           (2, return (Some "2pc.coord.crash_decided")) ])
  in
  frequency
    [ (8, txn); (2, map (fun i -> Up i) (0 -- (n_shards - 1))); (1, return Redrive);
      (1, return Resolve); (2, return Restart) ]

(* Crash the coordinator (a no-op when an injected crash already took
   it down), read the reference off what survived, recover, and compare
   every answer the recovered coordinator gives with the reference's. *)
let restart_and_check sh ~down ~probes =
  let coord = Shard.coord sh in
  Twopc.crash coord;
  let r = Reference.of_log (Twopc.log coord) in
  let ep_down ep = down.(ep - 1) in
  let want = Reference.unfinished r ~down:ep_down in
  Alcotest.(check int) "recover's re-drive leaves the reference's unfinished gids" want
    (Twopc.recover coord);
  Alcotest.(check int) "unresolved" want (Twopc.unresolved coord);
  Alcotest.(check int) "a second re-drive" want (Twopc.redrive coord);
  let check (ep, tx) =
    Alcotest.(check bool)
      (Printf.sprintf "has_decision (%d, %d)" ep tx)
      (Reference.Pairs.mem (ep, tx) r.decided)
      (Twopc.has_decision coord ~shard:ep ~txn:tx)
  in
  Reference.Pairs.iter
    (fun (ep, tx) ->
      check (ep, tx);
      check (ep, tx + 1);
      check (ep + n_shards, tx))
    r.decided;
  List.iter check probes;
  (* The epoch marker, the last empty Decision, claims gids past every
     one the log held. *)
  let marker =
    Log.fold (Twopc.log coord)
      (fun m _ (rec_ : Log_record.t) ->
        match rec_.body with Decision { gid; participants = [] } -> gid | _ -> m)
      0
  in
  Alcotest.(check bool) "epoch marker past every gid" true (marker > r.max_gid)

let run_restart_steps steps =
  fresh @@ fun () ->
  let sh = Shard.create ~n:n_shards () in
  let coord = Shard.coord sh in
  let net = Shard.net sh in
  let down = Array.make n_shards false in
  let take_down i =
    if not down.(i) then begin
      Net.unregister net ~id:(Shard.endpoint sh i);
      down.(i) <- true
    end
  in
  (* Participants of every attempt that reached 2PC, committed or not,
     and some that no attempt named. *)
  let probes = ref [ (0, 0); (1, 0); (n_shards, (1 lsl 32) - 1); (1, 424_242) ] in
  let ensure_up () = if not (Twopc.up coord) then restart_and_check sh ~down ~probes:!probes in
  List.iter
    (fun step ->
      match step with
      | Txn { writes; victim; fault } -> (
          ensure_up ();
          Option.iter
            (fun site ->
              Fault.configure site (Fault.Plan [ 1 ]);
              Fault.seed 1)
            fault;
          let chaos () = Option.iter take_down victim in
          let writes = List.map (fun (s, rank, off) -> (s, rank, off, i64 (rank + 1))) writes in
          (match Shard.txn ~chaos sh ~client:700 ~writes () with
          | `Committed | `Aborted | `Blocked -> ()
          | exception Twopc.Crashed -> ());
          Fault.reset ();
          probes := Shard.last_parts sh @ !probes)
      | Up i ->
          if down.(i) then begin
            Remote.serve net (Shard.server sh i);
            down.(i) <- false
          end
      | Redrive -> if Twopc.up coord then ignore (Twopc.redrive coord)
      | Resolve -> ignore (Shard.resolve_in_doubt sh)
      | Restart -> restart_and_check sh ~down ~probes:!probes)
    steps;
  restart_and_check sh ~down ~probes:!probes;
  (* With every shard back, a re-drive finishes every decision. *)
  Array.iteri (fun i d -> if d then Remote.serve net (Shard.server sh i)) down;
  Alcotest.(check int) "every decision finishes" 0 (Twopc.redrive coord);
  true

let prop_coordinator_restart_equals_reference =
  QCheck.Test.make ~name:"coordinator_restart_equals_reference" ~count:40
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 40) gen_step)
       ~print:QCheck.Print.(list pp_step))
    run_restart_steps

(* Restart reads each Decision's participants in place: the only
   per-record allocation is the gid -> LSN entry of a decision not yet
   retired, a few words. Decoding each record and keying a polymorphic
   pair table by its participants cost tens. *)
let test_coordinator_restart_allocation () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let coord = Shard.coord sh in
  let log = Twopc.log coord in
  let n = 10_000 in
  for g = 1 to n do
    let participants = [ (1, 2 * g); (2, (2 * g) + 1) ] in
    ignore (Log.append log { prev_lsn = 0; body = Decision { gid = g; participants } });
    ignore (Log.append log { prev_lsn = 0; body = End { txn = g } })
  done;
  Log.flush log ();
  Twopc.crash coord;
  let before = Stdlib.Gc.minor_words () in
  let unacked = Twopc.recover coord in
  let per_record = (Stdlib.Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "nothing to re-drive" 0 unacked;
  Alcotest.(check bool) "first decision recovered" true (Twopc.has_decision coord ~shard:1 ~txn:2);
  Alcotest.(check bool) "last decision recovered" true
    (Twopc.has_decision coord ~shard:2 ~txn:((2 * n) + 1));
  if per_record >= 8.0 then
    Alcotest.failf "%.1f minor words per Decision record (bound 8)" per_record

let suite =
  [
    Alcotest.test_case "oid host routing" `Quick test_routing;
    Alcotest.test_case "cross-shard commit" `Quick test_cross_shard_commit;
    Alcotest.test_case "single-shard commit" `Quick test_single_shard_commit;
    Alcotest.test_case "f_prepare vote-no aborts everywhere" `Quick
      test_vote_no_aborts_everywhere;
    Alcotest.test_case "coordinator aborts on a no vote" `Quick
      test_coordinator_abort_on_no_vote;
    Alcotest.test_case "in-doubt keeps X locks across restart" `Quick
      test_in_doubt_keeps_locks_across_restart;
    Alcotest.test_case "duplicate decide is a no-op" `Quick test_duplicate_decide_is_noop;
    Alcotest.test_case "coord crash undecided presumes abort" `Quick
      test_coordinator_crash_before_decision_presumes_abort;
    Alcotest.test_case "coord crash decided re-drives" `Quick
      test_coordinator_crash_after_decision_redrives;
    Alcotest.test_case "commits after many coordinator restarts" `Quick
      test_commits_after_many_coordinator_restarts;
    Alcotest.test_case "query unknown txn answers abort" `Quick test_query_unknown_txn_is_abort;
    Alcotest.test_case "wal names a shard's log" `Quick test_wal_names_a_shard;
    QCheck_alcotest.to_alcotest prop_coordinator_restart_equals_reference;
    Alcotest.test_case "coordinator_restart_allocation" `Quick
      test_coordinator_restart_allocation;
  ]
