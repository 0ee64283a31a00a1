(* Presumed-abort two-phase commit coordinator (section 3: "distributed
   transaction management ... using the two phase commit protocol with
   the presumed abort optimization").

   The coordinator owns a decision log separate from any data server's
   WAL. The protocol costs, per the presumed-abort rules:

   - COMMIT decisions are force-logged ({!Log_record.Decision}) through
     the coordinator's own group-commit before any participant hears the
     verdict: once any shard commits, a coordinator crash must still
     find the decision.
   - ABORT decisions are never logged. A participant in doubt that asks
     about a transaction with no Decision record is told to abort --
     the absence of the record IS the abort record.
   - Participant acknowledgements retire the in-doubt entry: when every
     participant has acked a commit decision, an [End] record lets a
     post-crash scan forget the gid; until then {!redrive} re-sends the
     decision (idempotent under the servers' (src,rid) dedup and the
     no-op semantics of a repeated decide).

   Request ids are a pure function of (gid, participant index, round
   kind), so a re-driven decide carries the same rid as the original --
   the dedup table answers for deliveries that did land -- while
   distinct transactions can never collide. Gids restart past a forced
   epoch marker after a crash, so recycled rids never alias a pre-crash
   request.

   Crash injection: the [2pc.coord.crash_undecided] and
   [2pc.coord.crash_decided] fault sites fire at the two instants the
   protocol is most exposed -- after the votes but before the decision
   is durable (participants must presume abort), and after the force
   but before any decide is delivered (recovery must re-drive). Both
   lose the coordinator's volatile state and raise {!Crashed}. *)

module Net = Bess_net.Net
module Remote = Bess.Remote
module Log = Bess_wal.Log
module Log_record = Bess_wal.Log_record
module Group_commit = Bess_wal.Group_commit
module Stats = Bess_util.Stats
module Span = Bess_obs.Span
module Fault = Bess_fault.Fault
module Int_tbl = Bess_util.Int_tbl
module Pair_set = Bess_util.Pair_set

type counters = {
  begins : Stats.counter;
  prepares_sent : Stats.counter;
  votes_yes : Stats.counter;
  votes_no : Stats.counter;
  decisions_logged : Stats.counter;
  acks : Stats.counter;
  commits : Stats.counter;
  aborts : Stats.counter;
}

let counters stats =
  {
    begins = Stats.counter stats "2pc.begins";
    prepares_sent = Stats.counter stats "2pc.prepares_sent";
    votes_yes = Stats.counter stats "2pc.votes_yes";
    votes_no = Stats.counter stats "2pc.votes_no";
    decisions_logged = Stats.counter stats "2pc.decisions_logged";
    acks = Stats.counter stats "2pc.acks";
    commits = Stats.counter stats "2pc.commits";
    aborts = Stats.counter stats "2pc.aborts";
  }

type t = {
  id : int; (* network endpoint *)
  net : Remote.network;
  log : Log.t;
  gc : Group_commit.t;
  (* The (shard, txn) participants of every durable commit decision,
     INCLUDING fully acked ones. It is never pruned on End: a
     participant that crashed while prepared still acks the decide (as
     a no-op, [server.decide_noops]), so the coordinator logs End, yet
     on restart that participant is in doubt and must still hear
     commit (test_shard.ml "in-doubt keeps X locks across restart").
     Only a crash empties it; recovery refills it from the log. *)
  decided : Pair_set.t;
  (* Commit decisions not yet acked by every participant, by gid, as
     (original index, shard, txn) so re-driven rids match the first
     send. *)
  pending : (int * int * int) list Int_tbl.t;
  mutable next_gid : int;
  mutable up : bool;
  stats : Stats.t;
  c : counters;
}

exception Crashed

(* Participants per transaction bounded so rids can be packed below the
   per-gid stride. *)
let max_participants = 63
let rid_stride = 128

(* Gid headroom claimed by the epoch marker on recovery: covers every
   gid handed out since the last durable record (aborts log nothing). *)
let epoch_gap = 1_000_000

let prepare_rid ~gid ~idx = (gid * rid_stride) + (2 * idx) + 1
let decide_rid ~gid ~idx = (gid * rid_stride) + (2 * idx) + 2

(* Coordinator processing cost per participant message: vote tally and
   decision bookkeeping advance the simulated clock, so the 2pc spans
   own self time on the critical path (the wire and the decision force
   belong to their child net/wal spans). *)
let vote_work_ns = 2_000
let decide_work_ns = 1_000

let register_endpoint t =
  Net.register t.net ~id:t.id (fun ~src:_ req ->
      match req with
      | Remote.Query_decision { shard; txn; _ } ->
          Stats.incr t.stats "2pc.queries";
          let known = Pair_set.mem t.decided shard txn in
          if not known then Stats.incr t.stats "2pc.presumed_aborts";
          Remote.R_decision known
      | _ -> Remote.R_error "coordinator only answers decision queries")

(* The participant's side of in-doubt resolution: shard endpoint [shard]
   asks [coordinator] the fate of its prepared [txn]. [Some true] is
   commit, [Some false] (presumed) abort, [None] no answer. Un-keyed
   ([rid = 0]): a query changes nothing, so a redelivery is harmless. *)
let query_decision net ~shard ~coordinator ~txn =
  match
    Remote.call net ~src:shard ~dst:coordinator (Remote.Query_decision { rid = 0; shard; txn })
  with
  | Remote.R_decision d -> Some d
  | _ -> None
  | exception (Remote.Unreachable _ | Remote.Exhausted _) -> None

let create ~net () =
  let log = Log.create () in
  let gc = Group_commit.create log in
  let stats = Stats.create () in
  Bess_obs.Registry.register_stats "2pc" stats;
  let t =
    {
      id = 900 (* clear of the shards' endpoints 1..n *);
      net;
      log;
      gc;
      decided = Pair_set.create 256;
      pending = Int_tbl.create 32;
      next_gid = 1;
      up = true;
      stats;
      c = counters stats;
    }
  in
  Bess_obs.Registry.register_gauge "2pc" "2pc.unresolved" (fun () ->
      Int_tbl.length t.pending);
  register_endpoint t;
  t

let id t = t.id
let stats t = t.stats
let log t = t.log
let up t = t.up
let unresolved t = Int_tbl.length t.pending
let has_decision t ~shard ~txn = Pair_set.mem t.decided shard txn

(* Lose everything volatile; only the forced log prefix survives. The
   endpoint drops off the network, so participant queries bounce until
   {!recover}. *)
let crash t =
  if t.up then begin
    Stats.incr t.stats "2pc.coord_crashes";
    Log.crash t.log ();
    Group_commit.reset t.gc;
    Pair_set.clear t.decided;
    Int_tbl.reset t.pending;
    Net.unregister t.net ~id:t.id;
    t.up <- false
  end

let force t lsn =
  let ticket = Group_commit.commit_lsn t.gc ~lsn in
  match Group_commit.await t.gc ticket with
  | () -> ()
  | exception Fault.Injected _ ->
      (* The decision's durability is unknown: indistinguishable from a
         crash at this instant, so fail the same way. *)
      crash t;
      raise Crashed

(* One round of commit-decide fan-out for [gid]: every ack retires its
   participant; when none remain the End record closes the entry. *)
let decide_round t gid =
  match Int_tbl.find_opt t.pending gid with
  | None -> ()
  | Some unacked ->
      let still =
        Span.with_span ~kind:"2pc.decide" @@ fun () ->
        List.filter
          (fun (idx, shard, txn) ->
            Span.advance_ns decide_work_ns;
            let rid = decide_rid ~gid ~idx in
            match
              Remote.call t.net ~src:t.id ~dst:shard (Remote.Decide { rid; txn; commit = true })
            with
            | Remote.R_ok ->
                Stats.bump t.c.acks;
                false
            | _ -> true
            | exception (Remote.Unreachable _ | Remote.Exhausted _) -> true)
          unacked
      in
      if still = [] then begin
        ignore (Log.append t.log { prev_lsn = 0; body = End { txn = gid } });
        Int_tbl.remove t.pending gid
      end
      else Int_tbl.replace t.pending gid still

(* Re-send every unacked commit decision (after a crash, or after decide
   deliveries were lost); returns how many gids remain unacked. *)
let redrive t =
  if not t.up then invalid_arg "Twopc.redrive: coordinator is down";
  let gids = Int_tbl.fold (fun g _ acc -> g :: acc) t.pending [] |> List.sort Int.compare in
  List.iter
    (fun g ->
      Stats.incr t.stats "2pc.redrives";
      decide_round t g)
    gids;
  Int_tbl.length t.pending

let pending_parts participants = List.mapi (fun i (s, x) -> (i, s, x)) participants

(* One walk over the decision log's frames, decoding nothing: each
   Decision's participants go into [decided] as read in place, and its
   gid into [live] (gid -> LSN) until an End retires it. Only the few
   gids still live at the end are decoded, to rebuild [pending]. *)
let recover t =
  Pair_set.clear t.decided;
  Int_tbl.reset t.pending;
  let live = Int_tbl.create 64 in
  let max_gid = ref 0 in
  Log.iter_frames t.log (fun lsn buf off ->
      match Log_record.Frame.kind buf off with
      | Decision ->
          let gid = Log_record.Frame.txn buf off in
          let n = Log_record.Frame.n_participants buf off in
          if gid > !max_gid then max_gid := gid;
          for i = 0 to n - 1 do
            Pair_set.add t.decided
              (Log_record.Frame.participant_shard buf off i)
              (Log_record.Frame.participant_txn buf off i)
          done;
          if n > 0 then Int_tbl.replace live gid lsn
      | End -> Int_tbl.remove live (Log_record.Frame.txn buf off)
      | _ -> ());
  Int_tbl.iter
    (fun gid lsn ->
      match (Log_record.decode_frame (Log.buffer t.log) (Log.frame_offset t.log lsn)).body with
      | Decision { participants; _ } -> Int_tbl.replace t.pending gid (pending_parts participants)
      | _ -> assert false)
    live;
  t.up <- true;
  (* Epoch marker: an empty forced Decision record claiming gid
     headroom, so gids (hence rids) handed out after the crash can never
     alias pre-crash traffic surviving in a server's dedup table. *)
  let base = !max_gid + epoch_gap in
  let lsn = Log.append t.log { prev_lsn = 0; body = Decision { gid = base; participants = [] } } in
  force t lsn;
  t.next_gid <- base + 1;
  register_endpoint t;
  Stats.incr t.stats "2pc.recoveries";
  redrive t

(* Run one global transaction to a decision.

   [parts] is [(shard endpoint, local txn, updates)] per participant;
   the participants must hold the X locks their updates need (the
   prepare re-checks). [chaos] runs after the votes are in and before
   the decision -- the chaos harness uses it to crash participants
   while they are prepared. Raises {!Crashed} if an injected
   coordinator crash fires; the caller recovers with {!recover}. *)
let commit ?(chaos = fun () -> ()) t ~parts =
  if not t.up then invalid_arg "Twopc.commit: coordinator is down";
  (match parts with
  | [] -> invalid_arg "Twopc.commit: no participants"
  | _ when List.length parts > max_participants ->
      invalid_arg "Twopc.commit: too many participants"
  | _ -> ());
  Stats.bump t.c.begins;
  let gid = t.next_gid in
  t.next_gid <- gid + 1;
  let votes =
    Span.with_span ~kind:"2pc.prepare" @@ fun () ->
    List.mapi
      (fun idx (shard, txn, updates) ->
        Stats.bump t.c.prepares_sent;
        Span.advance_ns vote_work_ns;
        let rid = prepare_rid ~gid ~idx in
        match
          Remote.call t.net ~src:t.id ~dst:shard
            (Remote.Prepare { rid; txn; coordinator = t.id; updates })
        with
        | Remote.R_vote true ->
            Stats.bump t.c.votes_yes;
            `Yes
        | Remote.R_vote false ->
            Stats.bump t.c.votes_no;
            `No
        | _ -> `No_answer
        | exception (Remote.Unreachable _ | Remote.Exhausted _) ->
            Stats.incr t.stats "2pc.vote_lost";
            `No_answer)
      parts
  in
  chaos ();
  if List.for_all (fun v -> v = `Yes) votes then begin
    if Fault.fire "2pc.coord.crash_undecided" then begin
      crash t;
      raise Crashed
    end;
    let pl = List.map (fun (s, x, _) -> (s, x)) parts in
    let lsn = Log.append t.log { prev_lsn = 0; body = Decision { gid; participants = pl } } in
    force t lsn;
    List.iter (fun (s, x) -> Pair_set.add t.decided s x) pl;
    Int_tbl.replace t.pending gid (pending_parts pl);
    Stats.bump t.c.decisions_logged;
    if Fault.fire "2pc.coord.crash_decided" then begin
      crash t;
      raise Crashed
    end;
    decide_round t gid;
    Stats.bump t.c.commits;
    `Committed
  end
  else begin
    (* Presumed abort: no log write at all. Best-effort abort decides
       release the yes-voters' locks promptly; a lost one is resolved by
       the participant's own in-doubt query (absence of a decision).
       No-voters already aborted unilaterally and hear nothing. *)
    Span.with_span ~kind:"2pc.decide" @@ fun () ->
    List.iteri
      (fun idx ((shard, txn, _), vote) ->
        match vote with
        | `Yes | `No_answer -> (
            Span.advance_ns decide_work_ns;
            let rid = decide_rid ~gid ~idx in
            try ignore (Remote.call t.net ~src:t.id ~dst:shard
                          (Remote.Decide { rid; txn; commit = false }))
            with Remote.Unreachable _ | Remote.Exhausted _ -> ())
        | `No -> ())
      (List.combine parts votes);
    Stats.bump t.c.aborts;
    `Aborted
  end
