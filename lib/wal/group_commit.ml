(* Group commit: a force scheduler that amortises synchronous log forces
   across concurrent committers.

   Every transaction that needs a durability point (commit, prepare)
   registers a *ticket* for its decisive LSN instead of forcing the log
   itself. The scheduler decides when to issue one coalesced {!Log.flush}
   according to its policy:

   - [Immediate]: force as soon as a ticket registers — exactly today's
     one-force-per-commit behaviour, and the default.
   - [Group_n n]: force once [n] tickets are pending, so up to [n]
     committers share a single modeled-100µs fsync.
   - [Window w]: force when the simulated clock has advanced [w] ns
     past the oldest pending registration.

   Because the log is forced as a *prefix* ([Log.flush ~lsn] makes
   everything up to [lsn] durable), one coalesced force releases every
   pending ticket at or below its target at once. The same property makes
   early lock release safe under deferred forces: if transaction A's
   commit record is lost in a crash, any transaction B that observed A's
   writes logged its own commit record at a higher LSN, which is then
   lost too — there are no phantom dependencies on a rolled-back commit.

   A commit acknowledgement must never precede durability: {!await} is
   the acknowledgement point, and a waiter whose LSN is not yet durable
   triggers the group force itself (the single-threaded simulation's
   analogue of sleeping until the group-commit timer fires). Crash
   simulation drops all pending tickets; awaiting a dropped ticket raises
   — the commit was never acknowledged and recovery rolls it back. *)

module Span = Bess_obs.Span
module Stats = Bess_util.Stats

type policy = Immediate | Group_n of int | Window of int

type ticket = {
  tk_lsn : int; (* the LSN that must become durable *)
  tk_registered_ns : int; (* span clock at registration *)
  mutable tk_released : bool;
}

type t = {
  log : Log.t;
  mutable policy : policy;
  mutable pending : ticket list; (* newest first *)
  mutable n_pending : int; (* length of [pending]: the Group_n trigger and the
                              backlog gauge read this every registration, and a
                              List.length there is O(group) per commit *)
  mutable window_start : int; (* span clock at oldest pending; -1 when none *)
  (* Kept in the log's stats. *)
  c_forces : Stats.counter;
  h_commits_per_force : Stats.hist;
  h_force_wait : Stats.hist;
}

exception Lost_ticket

let pp_policy ppf = function
  | Immediate -> Fmt.string ppf "immediate"
  | Group_n n -> Fmt.pf ppf "group:%d" n
  | Window w -> Fmt.pf ppf "window:%d" w

let policy_to_string p = Fmt.str "%a" pp_policy p

let policy_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let norm = function
    | Group_n n when n <= 1 -> Immediate
    | p -> p
  in
  match String.index_opt s ':' with
  | Some i -> (
      let key = String.sub s 0 i in
      let v = int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) in
      match (key, v) with
      | ("group" | "n"), Some n when n >= 1 -> Ok (norm (Group_n n))
      | ("window" | "w"), Some w when w >= 0 -> Ok (Window w)
      | _ -> Error (Printf.sprintf "bad group-commit policy %S" s))
  | None -> (
      match s with
      | "immediate" | "none" | "off" -> Ok Immediate
      | _ -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok (norm (Group_n n))
          | _ -> Error (Printf.sprintf "bad group-commit policy %S" s)))

let create ?(policy = Immediate) log =
  let st = Log.stats log in
  let t =
    { log; policy; pending = []; n_pending = 0; window_start = -1;
      c_forces = Stats.counter st "wal.group.forces";
      h_commits_per_force = Stats.hist st "wal.group.commits_per_force";
      h_force_wait = Stats.hist st "wal.force_wait_ns" }
  in
  Bess_obs.Registry.register_gauge "wal" "wal.pending_tickets" (fun () -> t.n_pending);
  t

let policy t = t.policy
let pending t = t.n_pending
let stats t = Log.stats t.log

(* Release every pending ticket the durable horizon already covers
   (a checkpoint or WAL-rule force may have advanced it behind our
   back). Does not count a group force of its own. *)
let release_durable t =
  match t.pending with
  | [] -> ()
  | _ ->
      let durable = Log.flushed_lsn t.log in
      let released, kept = List.partition (fun tk -> tk.tk_lsn <= durable) t.pending in
      (match released with
      | [] -> ()
      | _ ->
          let now = Span.now_ns () in
          List.iter
            (fun tk ->
              tk.tk_released <- true;
              Stats.record t.h_force_wait (now - tk.tk_registered_ns))
            released);
      t.pending <- kept;
      t.n_pending <- List.length kept;
      if kept = [] then t.window_start <- -1

(* Issue one coalesced force through the highest pending LSN and release
   every waiting ticket. Under [Immediate] the group span is omitted so
   the trace tree keeps today's exact shape (a bare wal.force under the
   committing request). *)
let force t =
  release_durable t;
  match t.pending with
  | [] -> ()
  | tickets ->
      let n = t.n_pending in
      let target = List.fold_left (fun acc tk -> Stdlib.max acc tk.tk_lsn) 0 tickets in
      let flush () = Log.flush t.log ~lsn:target () in
      (match t.policy with
      | Immediate -> flush ()
      | _ ->
          Span.with_span ~kind:"wal.group_force"
            ~attrs:
              (if Span.enabled () then [ ("committers", string_of_int n) ] else [])
            flush);
      Stats.bump t.c_forces;
      Stats.record t.h_commits_per_force n;
      release_durable t

(* Register a durability ticket for [lsn] and let the policy decide
   whether to force now. Returns the ticket; the caller acknowledges the
   commit only after {!await} returns. *)
let commit_lsn t ~lsn =
  let tk = { tk_lsn = lsn; tk_registered_ns = Span.now_ns (); tk_released = false } in
  if Log.flushed_lsn t.log >= lsn then tk.tk_released <- true
  else begin
    if t.pending = [] then t.window_start <- Span.now_ns ();
    t.pending <- tk :: t.pending;
    t.n_pending <- t.n_pending + 1;
    match t.policy with
    | Immediate -> force t
    | Group_n n -> if t.n_pending >= n then force t
    | Window w -> if Span.now_ns () - t.window_start >= w then force t
  end;
  tk

(* Block the (simulated) client until its LSN is durable. A stalled
   waiter forces the whole pending group — the acknowledgement can never
   overtake durability. *)
let await t tk =
  if not tk.tk_released then begin
    release_durable t;
    if not tk.tk_released then begin
      if not (List.memq tk t.pending) then raise Lost_ticket;
      force t
    end;
    if not tk.tk_released then raise Lost_ticket
  end

let is_released tk = tk.tk_released

(* Crash simulation: pending tickets die with the volatile log tail.
   Their transactions were never acknowledged, so recovery rolls them
   back; awaiting one of these afterwards raises {!Lost_ticket}. *)
let reset t =
  t.pending <- [];
  t.n_pending <- 0;
  t.window_start <- -1

let set_policy t p =
  (* Drain under the old policy first so semantics never mix. *)
  force t;
  t.policy <- p
