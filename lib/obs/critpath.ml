(* Critical-path latency attribution.

   The span plane (PR 2) records *where* time was spent; this module
   answers *whose fault the tail is*: for every closed transaction root
   span it decomposes the root's wall-clock window into exhaustive,
   non-overlapping phases — lock wait, WAL force, network transit,
   client retry backoff, server work, scheduler queueing lag, and
   uncategorised remainder — whose durations sum to the measured
   transaction latency *exactly*. The per-phase totals feed histograms
   under the "critpath" registry namespace (so Series windows carry
   per-phase tail percentiles), and the slowest transactions are kept
   whole — span subtree plus the fault firings that interleaved them —
   in a bounded top-K reservoir surfaced by [bessctl slow] and by every
   flight-recorder dump.

   The attribution is deepest-span-wins: a root's window is segmented
   by recursively clipping each child to its parent's still-uncovered
   interval (siblings sorted by start, overlap clipped away), so the
   innermost span owns the time and double counting is impossible.
   Two reassignment passes then refine ownership without changing the
   sum: parked cross-call [lock.wait] root spans (matched through the
   shared "txn" attribute) re-label intersecting backoff/self time as
   lock wait — a client that backs off because the server said Blocked
   is really waiting for a lock — and the scheduler's reported event
   lag ("sched_lag_ns" on the root) converts leading self time into
   queueing delay.

   Consumption is online, through {!Span.set_close_hook}: descendants
   are buffered per open root as they close and the whole tree is
   attributed the moment the root closes, so attribution never depends
   on span-ring retention even with 10^5 concurrently open roots. *)

type phase = Lock | Wal | Net | Backoff | Server | Sched | Twopc | Other

let phases = [ Lock; Wal; Net; Backoff; Server; Sched; Twopc; Other ]

let phase_name = function
  | Lock -> "lock"
  | Wal -> "wal"
  | Net -> "net"
  | Backoff -> "backoff"
  | Server -> "server"
  | Sched -> "sched"
  | Twopc -> "2pc"
  | Other -> "other"

let phase_index = function
  | Lock -> 0
  | Wal -> 1
  | Net -> 2
  | Backoff -> 3
  | Server -> 4
  | Sched -> 5
  | Twopc -> 6
  | Other -> 7

let n_phases = 8

(* Ownership of a span kind's *self* time (children always win over the
   parent). Kinds not listed — future substrates — count as server
   work: anything the system does on a request's behalf is server time
   unless it is specifically a wait. *)
let phase_of_kind = function
  | "lock.wait" | "lock.acquire" -> Lock
  | "wal.append" | "wal.force" | "wal.group_force" | "wal.ticket_wait" -> Wal
  | "net.rpc" | "net.wire" -> Net
  | "client.backoff" -> Backoff
  (* Coordinator self time: vote collection bookkeeping and the decide
     fan-out — the child net/wal spans underneath still claim their own
     windows, so this is pure 2PC protocol overhead. *)
  | "2pc.prepare" | "2pc.decide" -> Twopc
  | "session.txn" | "sched.txn" | "bench.workload" -> Other
  | _ -> Server

(* ---- Segmentation --------------------------------------------------------- *)

(* A segment [(start, end, phase)] of the root window. The invariant
   maintained by every pass below: segments are disjoint, sorted by
   start, and cover the root window exactly. *)

(* Deepest-span-wins walk: [node] owns [lo, hi); each child clipped to
   the still-uncovered suffix claims its intersection and recurses;
   whatever no child covers is the node's self time. *)
let rec segment_node segs children (node : Span.span) lo hi =
  let kids =
    List.sort
      (fun (a : Span.span) (b : Span.span) ->
        compare (a.Span.start_ns, a.Span.id) (b.Span.start_ns, b.Span.id))
      (Hashtbl.find_all children node.Span.id)
  in
  let cursor = ref lo in
  List.iter
    (fun (k : Span.span) ->
      let ks = if k.Span.start_ns > !cursor then k.Span.start_ns else !cursor in
      let ke = if k.Span.end_ns < hi then k.Span.end_ns else hi in
      if ke > ks then begin
        if ks > !cursor then segs := (!cursor, ks, phase_of_kind node.Span.kind) :: !segs;
        segment_node segs children k ks ke;
        cursor := ke
      end)
    kids;
  if hi > !cursor then segs := (!cursor, hi, phase_of_kind node.Span.kind) :: !segs

(* Re-label the intersection of each parked lock-wait interval with any
   Backoff/Other segment as Lock: the client was "idle" or backing off
   precisely because its lock request sat in a queue. Segments owned by
   real work (Net, Wal, Server) are left alone — that time was spent
   regardless of the waiting lock. *)
let apply_lock_waits segs intervals =
  List.fold_left
    (fun segs (ls, le) ->
      List.concat_map
        (fun ((s, e, ph) as seg) ->
          match ph with
          | Backoff | Other ->
              let os = if ls > s then ls else s and oe = if le < e then le else e in
              if oe > os then
                List.filter (fun (a, b, _) -> b > a) [ (s, os, ph); (os, oe, Lock); (oe, e, ph) ]
              else [ seg ]
          | _ -> [ seg ])
        segs)
    segs intervals

(* Convert up to [lag] ns of Other time (earliest first) into Sched:
   the driver reports how late the scheduler ran this transaction's
   events, and that lag shows up as otherwise-unexplained root self
   time. Clamping to the available Other time keeps the sum exact even
   if the reported lag overlaps time already attributed elsewhere. *)
let apply_sched_lag segs lag =
  if lag <= 0 then segs
  else begin
    let remaining = ref lag in
    List.concat_map
      (fun ((s, e, ph) as seg) ->
        if ph = Other && !remaining > 0 then begin
          let take = if e - s < !remaining then e - s else !remaining in
          remaining := !remaining - take;
          List.filter (fun (a, b, _) -> b > a) [ (s, s + take, Sched); (s + take, e, Other) ]
        end
        else [ seg ])
      segs
  end

(* ---- The attribution sink -------------------------------------------------- *)

type blame = { b_total_ns : int; b_phase_ns : int array (* indexed by phase_index *) }

type slow_txn = {
  st_root : Span.span;
  st_spans : Span.span list; (* descendants + matched parked lock waits, close order *)
  st_blame : blame;
  st_faults : Span.instant list; (* fault firings inside the root window *)
}

type t = {
  top_k : int;
  stats : Bess_util.Stats.t;
  pending : (int, Span.span list ref) Hashtbl.t; (* root id -> closed descendants, newest first *)
  parked : (string, Span.span list) Hashtbl.t; (* txn attr -> closed lock.wait roots *)
  totals : int array; (* cumulative per-phase ns, for blame fractions *)
  mutable total_ns : int;
  mutable n_txns : int;
  mutable slow : slow_txn list; (* sorted: duration desc, then root id asc *)
}

let create ?(top_k = 32) () =
  if top_k <= 0 then invalid_arg "Critpath.create: top_k must be positive";
  let stats = Bess_util.Stats.create () in
  (* Make every phase histogram visible before the first sample. *)
  ignore (Bess_util.Stats.histogram stats "critpath.txn_ns");
  ignore (Bess_util.Stats.histogram stats "critpath.commit_ns");
  List.iter
    (fun p -> ignore (Bess_util.Stats.histogram stats ("critpath." ^ phase_name p ^ "_ns")))
    phases;
  Registry.register_stats "critpath" stats;
  {
    top_k;
    stats;
    pending = Hashtbl.create 1024;
    parked = Hashtbl.create 256;
    totals = Array.make n_phases 0;
    total_ns = 0;
    n_txns = 0;
    slow = [];
  }

(* The span kinds that open a transaction: the scheduler fleets' and
   the client session's. *)
let is_root_kind kind = String.equal kind "sched.txn" || String.equal kind "session.txn"

(* The nearest *open* ancestor whose kind is a root kind — the
   transaction this closed span belongs to, or [None] for spans outside
   any transaction (bench scaffolding, background work). *)
let rec owner s =
  match Span.live_parent s with
  | Some p -> if p.Span.end_ns < 0 && is_root_kind p.Span.kind then Some p.Span.id else owner p
  | None -> None

(* ---- Top-K reservoir ------------------------------------------------------- *)

(* Admission: while not full everything enters; at capacity a candidate
   must be *strictly* slower than the current minimum (ties keep the
   incumbent — first observed wins). Order inside: duration descending,
   root id ascending, so same-seed runs capture identical sets in
   identical order. [entry] is built only for an admitted root. *)
let offer_slow t (root : Span.span) entry =
  let dur s = Span.duration s.st_root in
  let before a b =
    let da = dur a and db = dur b in
    if da <> db then da > db else a.st_root.Span.id < b.st_root.Span.id
  in
  let rec insert e = function
    | [] -> [ e ]
    | x :: rest -> if before e x then e :: x :: rest else x :: insert e rest
  in
  let n = List.length t.slow in
  if n < t.top_k then t.slow <- insert (entry ()) t.slow
  else
    let min_dur = dur (List.nth t.slow (n - 1)) in
    if Span.duration root > min_dur then begin
      Bess_util.Stats.incr t.stats "critpath.slow_evicted";
      t.slow <- insert (entry ()) (List.filteri (fun i _ -> i < n - 1) t.slow)
    end
    else Bess_util.Stats.incr t.stats "critpath.slow_rejected"

(* ---- Root processing ------------------------------------------------------- *)

let int_attr (s : Span.span) name =
  match List.assoc_opt name s.Span.attrs with
  | None -> None
  | Some v -> int_of_string_opt v

(* Fault firings are the instants the fault plane names "fault:<site>". *)
let is_fault (i : Span.instant) = String.starts_with ~prefix:"fault:" i.Span.i_name

let process_root t c (root : Span.span) =
  let descendants =
    match Hashtbl.find_opt t.pending root.Span.id with Some l -> List.rev !l | None -> []
  in
  Hashtbl.remove t.pending root.Span.id;
  let lock_waits =
    match List.assoc_opt "txn" root.Span.attrs with
    | None -> []
    | Some txn ->
        let spans = Option.value ~default:[] (Hashtbl.find_opt t.parked txn) in
        Hashtbl.remove t.parked txn;
        List.rev spans
  in
  let lo = root.Span.start_ns and hi = root.Span.end_ns in
  let children = Hashtbl.create (List.length descendants + 1) in
  List.iter
    (fun (s : Span.span) ->
      match s.Span.parent with Some p -> Hashtbl.add children p.Span.id s | None -> ())
    descendants;
  let segs = ref [] in
  segment_node segs children root lo hi;
  let segs = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !segs in
  let segs =
    apply_lock_waits segs
      (List.filter_map
         (fun (w : Span.span) ->
           let ws = if w.Span.start_ns > lo then w.Span.start_ns else lo in
           let we = if w.Span.end_ns < hi then w.Span.end_ns else hi in
           if we > ws then Some (ws, we) else None)
         lock_waits)
  in
  let segs =
    match int_attr root "sched_lag_ns" with
    | Some lag -> apply_sched_lag segs lag
    | None -> segs
  in
  let phase_ns = Array.make n_phases 0 in
  List.iter
    (fun (s, e, ph) ->
      let i = phase_index ph in
      phase_ns.(i) <- phase_ns.(i) + (e - s))
    segs;
  let total = hi - lo in
  let sum = Array.fold_left ( + ) 0 phase_ns in
  (* The passes above conserve coverage by construction; a mismatch is
     a bug, counted honestly rather than silently absorbed. *)
  if sum <> total then Bess_util.Stats.incr t.stats "critpath.attribution_gap";
  Bess_util.Stats.incr t.stats "critpath.txns";
  t.n_txns <- t.n_txns + 1;
  t.total_ns <- t.total_ns + total;
  Array.iteri (fun i v -> t.totals.(i) <- t.totals.(i) + v) phase_ns;
  Bess_util.Stats.observe t.stats "critpath.txn_ns" total;
  let outcome = List.assoc_opt "outcome" root.Span.attrs in
  (match outcome with
  | Some o -> Bess_util.Stats.incr_labeled t.stats "critpath.outcome" ~label:o
  | None -> Bess_util.Stats.incr_labeled t.stats "critpath.outcome" ~label:"commit");
  (match outcome with
  | None | Some "commit" -> Bess_util.Stats.observe t.stats "critpath.commit_ns" total
  | Some _ -> ());
  if List.mem_assoc "unclosed" root.Span.attrs then
    Bess_util.Stats.incr t.stats "critpath.unclosed_roots";
  List.iter
    (fun p ->
      Bess_util.Stats.observe t.stats
        ("critpath." ^ phase_name p ^ "_ns")
        phase_ns.(phase_index p))
    phases;
  let blame = { b_total_ns = total; b_phase_ns = phase_ns } in
  offer_slow t root (fun () ->
      { st_root = root; st_spans = descendants @ lock_waits; st_blame = blame;
        st_faults = List.filter is_fault (Span.instants ~within:root c) })

let on_close t c (s : Span.span) =
  if is_root_kind s.Span.kind then process_root t c s
  else if s.Span.kind = "lock.wait" && s.Span.parent = None then begin
    match List.assoc_opt "txn" s.Span.attrs with
    | None -> ()
    | Some txn ->
        let existing = Option.value ~default:[] (Hashtbl.find_opt t.parked txn) in
        Hashtbl.replace t.parked txn (s :: existing)
  end
  else
    match owner s with
    | Some root_id -> (
        match Hashtbl.find_opt t.pending root_id with
        | Some l -> l := s :: !l
        | None -> Hashtbl.add t.pending root_id (ref [ s ]))
    | None ->
        (* Parentless spans never belonged to a transaction (bench
           scaffolding, background maintenance) — benign. A span whose
           parent chain exists but reaches no open root closed after
           its transaction did: that is the anomaly the bench's
           per-window no-orphans check watches. *)
        if s.Span.parent = None then
          Bess_util.Stats.incr t.stats "critpath.background_spans"
        else Bess_util.Stats.incr t.stats "critpath.orphan_spans"

(* ---- Accessors ------------------------------------------------------------- *)

let stats t = t.stats
let txns t = t.n_txns
let total_ns t = t.total_ns
let blame_totals t = List.map (fun p -> (phase_name p, t.totals.(phase_index p))) phases
let slow t = t.slow

(* One line capturing the whole decomposition — equal for same-seed
   runs, the determinism check the bench asserts. *)
let fingerprint t =
  Printf.sprintf "txns=%d total=%d %s" t.n_txns t.total_ns
    (String.concat " "
       (List.map (fun (name, v) -> Printf.sprintf "%s=%d" name v) (blame_totals t)))

(* ---- JSON ------------------------------------------------------------------- *)

let attrs_json attrs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)

let json_of_span (s : Span.span) =
  Json.Obj
    ([ ("id", Json.int s.Span.id); ("kind", Json.Str s.Span.kind);
       ("start_ns", Json.int s.Span.start_ns); ("end_ns", Json.int s.Span.end_ns) ]
    @ (match s.Span.parent with Some p -> [ ("parent", Json.int p.Span.id) ] | None -> [])
    @ [ ("attrs", attrs_json s.Span.attrs) ])

let json_of_slow t =
  Json.Arr
    (List.map
       (fun e ->
         Json.Obj
           [ ("root", json_of_span e.st_root); ("total_ns", Json.int e.st_blame.b_total_ns);
             ( "blame",
               Json.Obj
                 (List.map
                    (fun p -> (phase_name p, Json.int e.st_blame.b_phase_ns.(phase_index p)))
                    phases) );
             ("spans", Json.Arr (List.map json_of_span e.st_spans));
             ( "faults",
               Json.Arr
                 (List.map
                    (fun (f : Span.instant) ->
                      Json.Obj
                        [ ("name", Json.Str f.Span.i_name); ("ts_ns", Json.int f.Span.i_ns);
                          ("attrs", attrs_json f.Span.i_attrs) ])
                    e.st_faults) ) ])
       t.slow)

(* ---- Installation ----------------------------------------------------------- *)

let the_sink : t option ref = ref None

let install s =
  the_sink := s;
  match s with
  | None ->
      Span.set_close_hook None;
      Flightrec.clear_aux_source "slow_txns"
  | Some t ->
      Span.set_close_hook (Some (fun c sp -> on_close t c sp));
      (* Every flight-recorder dump now carries the slow-transaction
         reservoir alongside the span and instant timeline. *)
      Flightrec.set_aux_source "slow_txns" (fun () -> json_of_slow t)

let installed () = !the_sink
