(* Causal span tracing on the simulated clock.

   The registry (PR 1) answers "how many" — faults taken, forces issued,
   messages sent. Spans answer "where the time went in *this* request":
   each one is a timed step of a causal chain, parented to whatever was
   ambient when it opened. The ambient context is a dynamically-scoped
   cell: [with_span]/[enter] swap it, so the net layer, the fault
   handler and the lock table attach children without any explicit
   context argument threading through the request path.

   The collector is the system's one event record: besides spans, its
   ring holds zero-width instants — primitive events, fault firings —
   on the same timeline.

   Time is a process-wide simulated-nanosecond counter. Substrates with
   a cost model advance it ([Net.account] adds wire time, the fault path
   adds a trap cost, the log adds a force cost); tracing never does, so
   installing a collector cannot move the schedule. Many stamps share a
   nanosecond, so every open, close and instant also takes the
   collector's next sequence number, and stamps order by (ns, seq):
   a child opens after and closes before its parent in that order.

   Everything is a no-op until a collector is installed, so the
   instrumented hot paths pay one branch when tracing is off. *)

type span = {
  id : int;
  mutable parent : span option;
  kind : string;
  hist : Bess_util.Stats.hist; (* the kind's duration histogram *)
  start_ns : int;
  start_seq : int;
  mutable end_ns : int; (* -1 while open *)
  mutable end_seq : int;
  mutable attrs : (string * string) list;
  mutable retained : bool; (* open, or closed and still in the ring *)
}

type instant = { i_name : string; i_ns : int; i_seq : int; i_attrs : (string * string) list }

(* One ring, in record order: a span enters it when it closes, an
   instant when it is taken. Stamps never run backwards, so the ring is
   ordered by each entry's last stamp. *)
type entry = Closed of span | Instant of instant

type t = {
  ring : entry array; (* bounded, oldest evicted *)
  mutable head : int;
  mutable length : int;
  mutable next_id : int;
  mutable next_seq : int;
  open_spans : (int, span) Hashtbl.t; (* id -> still-open span *)
  mutable dropped : int;
  stats : Bess_util.Stats.t;
  hists : (string, Bess_util.Stats.hist) Hashtbl.t; (* kind -> its histogram *)
}

(* The central table. Opening any other kind raises: a typo'd kind would
   otherwise silently fork its own histogram and break the breakdown. *)
let kinds =
  [
    "bench.workload"; (* one experiment under Report.with_observed *)
    "session.txn"; (* client transaction, begin_txn..commit/abort *)
    "session.fault"; (* fault wave: slotted / data / large *)
    "client.request"; (* one fetcher operation (direct embedding) *)
    "client.backoff"; (* retry backoff wait after a request timeout *)
    "server.request"; (* one server-side operation *)
    "net.rpc"; (* full RPC round trip *)
    "net.wire"; (* simulated wire time of one message *)
    "net.handler"; (* destination handler execution *)
    "vmem.fault"; (* protection-fault resolution *)
    "cache.miss"; (* miss fill *)
    "cache.evict"; (* eviction, including dirty writeback *)
    "wal.append"; (* one log record append *)
    "wal.force"; (* log force to durable storage *)
    "wal.group_force"; (* one coalesced group-commit force *)
    "wal.ticket_wait"; (* durability-ticket registration to acknowledged durable *)
    "lock.acquire"; (* one lock-table request *)
    "lock.wait"; (* blocked-to-resolved queue time (root span) *)
    "sched.txn"; (* one driver transaction attempt, across events (root span) *)
    "2pc.prepare"; (* coordinator vote collection across all participants *)
    "2pc.decide"; (* coordinator decision fan-out until every ack *)
  ]

(* ---- The simulated clock and the ambient context ------------------------- *)

let clock = ref 0
let now_ns () = !clock

(* The windowed sampler (Series) hooks clock advances to close sampling
   windows in simulated time. One match on a ref when no hook is
   installed — the same zero-cost bar as the collector branch. The hook
   runs after the clock has moved and must not advance it recursively. *)
let tick_hook : (unit -> unit) option ref = ref None
let set_tick_hook h = tick_hook := h

let advance_ns n =
  if n > 0 then begin
    clock := !clock + n;
    match !tick_hook with None -> () | Some f -> f ()
  end

let the_collector : t option ref = ref None
let current : span option ref = ref None

let install c =
  the_collector := c;
  current := None

let installed () = !the_collector
let enabled () = match !the_collector with None -> false | Some _ -> true

(* What a scoped install puts back: the collector and the ambient span
   that was current under it. *)
type saved = t option * span option

let save () : saved = (!the_collector, !current)

let restore ((c, cur) : saved) =
  the_collector := c;
  current := cur

(* Fills the slots of a fresh ring; [length] says which hold entries. *)
let no_entry = Instant { i_name = ""; i_ns = 0; i_seq = 0; i_attrs = [] }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be positive";
  let stats = Bess_util.Stats.create () in
  (* Durations land under "span.<kind>": the registry's flattening rule
     keeps the prefix, so bench_report.json gains the breakdown. *)
  Registry.register_stats "span" stats;
  let hists = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace hists k (Bess_util.Stats.hist stats ("span." ^ k))) kinds;
  {
    ring = Array.make capacity no_entry;
    head = 0;
    length = 0;
    next_id = 1;
    next_seq = 0;
    open_spans = Hashtbl.create 256;
    dropped = 0;
    stats;
    hists;
  }

(* ---- Open / close --------------------------------------------------------- *)

let take_seq c =
  let n = c.next_seq in
  c.next_seq <- n + 1;
  n

(* The kind table is also the histogram lookup: one find both rejects
   an unknown kind and yields the histogram its duration feeds. *)
let open_in c ~parent ~kind ~attrs =
  let hist =
    match Hashtbl.find_opt c.hists kind with
    | Some h -> h
    | None -> invalid_arg (Printf.sprintf "Span: kind %S is not in Span.kinds" kind)
  in
  let s =
    { id = c.next_id; parent; kind; hist; start_ns = !clock; start_seq = take_seq c;
      end_ns = -1; end_seq = -1; attrs; retained = true }
  in
  c.next_id <- c.next_id + 1;
  Hashtbl.replace c.open_spans s.id s;
  s

(* Stamps compare as (ns, seq) pairs: the clock first, the sequence
   number for ties. *)
let closed_before p s = p.end_ns >= 0 && compare (p.end_ns, p.end_seq) (s.end_ns, s.end_seq) < 0

(* The parent, unless the ring has evicted it: an evicted ancestor ends
   every walk up the tree, and its child counts as a root. *)
let live_parent s = match s.parent with Some p when p.retained -> s.parent | _ -> None

(* Reparent [s] to its nearest still-open ancestor when its recorded
   parent closed first: the nesting invariant (child within the parent's
   [start,end]) must hold in every rendering, and an honest counter plus
   an attribute report the anomaly instead of hiding it. *)
let rec fix_parent s =
  match live_parent s with
  | None -> s.parent <- None (* no ancestor left, or it was evicted: a root *)
  | Some p ->
      if closed_before p s then begin
        s.parent <- p.parent;
        fix_parent s
      end

let push c e =
  if c.length = Array.length c.ring then begin
    (match c.ring.(c.head) with Closed old -> old.retained <- false | Instant _ -> ());
    c.dropped <- c.dropped + 1
  end
  else c.length <- c.length + 1;
  c.ring.(c.head) <- e;
  c.head <- (c.head + 1) mod Array.length c.ring

(* An online consumer of completed spans (the critical-path sink).
   Called after the span is fully closed, reparented and pushed; parents
   may still be open, so consumers can walk up the [parent] records. One
   match on a ref when absent — the usual zero-cost bar. *)
let close_hook : (t -> span -> unit) option ref = ref None
let set_close_hook h = close_hook := h

let close_in c s ~attrs =
  if s.end_ns >= 0 then Bess_util.Stats.incr c.stats "span.double_close"
  else begin
    s.end_ns <- !clock;
    s.end_seq <- take_seq c;
    s.attrs <- s.attrs @ attrs;
    Hashtbl.remove c.open_spans s.id;
    let out_of_order = match live_parent s with Some p -> closed_before p s | None -> false in
    if out_of_order then begin
      Bess_util.Stats.incr c.stats "span.out_of_order";
      s.attrs <- s.attrs @ [ ("out_of_order", "true") ];
      fix_parent s
    end;
    Bess_util.Stats.record s.hist (s.end_ns - s.start_ns);
    push c (Closed s);
    match !close_hook with None -> () | Some f -> f c s
  end

(* ---- Public span API ------------------------------------------------------ *)

(* A handle remembers its collector (closing survives a later
   [install None]) and, for scoped spans, the ambient span to restore. *)
type opened = { h_span : span; h_col : t; h_restore : span option option }
type handle = opened option

let none : handle = None

let with_span ?(attrs = []) ~kind f =
  match !the_collector with
  | None -> f ()
  | Some c ->
      let parent = !current in
      let s = open_in c ~parent ~kind ~attrs in
      current := Some s;
      Fun.protect
        ~finally:(fun () ->
          current := parent;
          close_in c s ~attrs:[])
        f

let enter ?(attrs = []) ~kind () : handle =
  match !the_collector with
  | None -> None
  | Some c ->
      let parent = !current in
      let s = open_in c ~parent ~kind ~attrs in
      current := Some s;
      Some { h_span = s; h_col = c; h_restore = Some parent }

let start ?(root = false) ?(attrs = []) ~kind () : handle =
  match !the_collector with
  | None -> None
  | Some c ->
      let parent = if root then None else !current in
      let s = open_in c ~parent ~kind ~attrs in
      Some { h_span = s; h_col = c; h_restore = None }

let finish ?(attrs = []) (h : handle) =
  match h with
  | None -> ()
  | Some { h_span; h_col; h_restore } ->
      (match h_restore with
      | Some saved ->
          (* Restore only if this span is still the ambient one: an
             interleaved enter/finish must not clobber a newer context. *)
          (match !current with
          | Some cur when cur.id = h_span.id -> current := saved
          | _ -> ())
      | None -> ());
      close_in h_col h_span ~attrs

(* Make an already-open handle the ambient span for the extent of [f]:
   the scheduler uses this to re-enter a transaction's root span for
   each event-callback segment, so substrate children opened inside the
   segment parent to the right transaction. *)
let with_handle (h : handle) f =
  match h with
  | None -> f ()
  | Some { h_span; _ } ->
      let saved = !current in
      current := Some h_span;
      Fun.protect ~finally:(fun () -> current := saved) f

let instant ?(attrs = []) name =
  match !the_collector with
  | None -> ()
  | Some c -> push c (Instant { i_name = name; i_ns = !clock; i_seq = take_seq c; i_attrs = attrs })

let annotate key value =
  match !current with
  | None -> ()
  | Some s -> if enabled () then s.attrs <- s.attrs @ [ (key, value) ]

let annotate_handle (h : handle) key value =
  match h with
  | None -> ()
  | Some { h_span; _ } -> h_span.attrs <- h_span.attrs @ [ (key, value) ]

let by_start a b = compare (a.start_ns, a.start_seq) (b.start_ns, b.start_seq)

let finish_all c =
  (* Close the most recently opened first, so each leftover nests
     inside its parent. *)
  let leftovers =
    List.sort (fun a b -> by_start b a) (Hashtbl.fold (fun _ s acc -> s :: acc) c.open_spans [])
  in
  List.iter
    (fun s ->
      Bess_util.Stats.incr c.stats "span.unclosed";
      close_in c s ~attrs:[ ("unclosed", "true") ])
    leftovers;
  match !the_collector with
  | Some c' when c' == c -> current := None
  | _ -> ()

(* ---- Inspection ----------------------------------------------------------- *)

(* The newest [n] entries, oldest first. *)
let entries ?(n = max_int) c =
  let cap = Array.length c.ring in
  let n = min n c.length in
  List.init n (fun i -> c.ring.((c.head - n + i + cap) mod cap))

let to_list c = List.filter_map (function Closed s -> Some s | Instant _ -> None) (entries c)

(* Instants taken while [within] was open: walk back from the newest
   entry and stop at the first one recorded before the span opened. *)
let instants ?within c =
  match within with
  | None -> List.filter_map (function Instant i -> Some i | Closed _ -> None) (entries c)
  | Some w ->
      let cap = Array.length c.ring in
      let rec back k acc =
        if k = c.length then acc
        else
          match c.ring.((c.head - 1 - k + cap) mod cap) with
          | Closed s when s.end_seq < w.start_seq -> acc
          | Instant i when i.i_seq < w.start_seq -> acc
          | Instant i when w.end_seq < 0 || i.i_seq < w.end_seq -> back (k + 1) (i :: acc)
          | _ -> back (k + 1) acc
      in
      back 0 []

let dropped c = c.dropped
let stats c = c.stats
let duration s = if s.end_ns >= 0 then s.end_ns - s.start_ns else !clock - s.start_ns

let roots c = List.filter (fun s -> Option.is_none (live_parent s)) (to_list c)

let slowest ?(kind = "session.txn") c =
  let best pool =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some b when duration b >= duration s -> acc
        | _ -> Some s)
      None pool
  in
  match best (List.filter (fun s -> s.kind = kind) (to_list c)) with
  | Some s -> Some s
  | None -> best (roots c)

let children_index c =
  let idx = Hashtbl.create 256 in
  List.iter
    (fun s -> match live_parent s with Some p -> Hashtbl.add idx p.id s | None -> ())
    (to_list c);
  idx

let pp_attrs ppf attrs =
  List.iter (fun (k, v) -> Fmt.pf ppf " %s=%s" k v) attrs

let pp_tree c ppf root =
  let idx = children_index c in
  let rec go depth s =
    Fmt.pf ppf "%s%-14s %8dns  [%d..%d]%a@," (String.make (2 * depth) ' ') s.kind
      (duration s) s.start_ns s.end_ns pp_attrs s.attrs;
    let kids = List.sort by_start (Hashtbl.find_all idx s.id) in
    List.iter (go (depth + 1)) kids
  in
  Fmt.pf ppf "@[<v>";
  go 0 root;
  Fmt.pf ppf "@]"

(* ---- Chrome trace_event export -------------------------------------------- *)

(* Spans are complete ("X") events and instants global "i" events, with
   microsecond stamps: 1 simulated ns renders as 0.001us exactly under
   %.3f, so nesting survives the unit change. Events appear in (ns, seq)
   order of their start, so a viewer or {!Flightrec.replay} that sorts
   stably by [ts] keeps same-nanosecond ties in record order. The track
   (tid) of a span is its root ancestor: each transaction gets its own
   timeline row in chrome://tracing / Perfetto. *)
let rec root_of s = match live_parent s with None -> s.id | Some p -> root_of p

let args fixed attrs =
  Json.Obj (fixed @ List.map (fun (k, v) -> (k, Json.Str v)) attrs)

let us ns = Json.fixed 3 (float_of_int ns /. 1000.0)

let event_json = function
  | Closed s ->
      let id n = Json.Str (string_of_int n) in
      let ids =
        match s.parent with
        | Some p -> [ ("id", id s.id); ("parent", id p.id) ]
        | None -> [ ("id", id s.id) ]
      in
      Json.Obj
        [ ("name", Json.Str s.kind); ("cat", Json.Str "bess"); ("ph", Json.Str "X");
          ("ts", us s.start_ns); ("dur", us (duration s)); ("pid", Json.int 1);
          ("tid", Json.int (root_of s)); ("args", args ids s.attrs) ]
  | Instant i ->
      Json.Obj
        [ ("name", Json.Str i.i_name); ("cat", Json.Str "bess"); ("ph", Json.Str "i");
          ("ts", us i.i_ns); ("s", Json.Str "g"); ("pid", Json.int 1); ("tid", Json.int 0);
          ("args", args [ ("seq", Json.Str (string_of_int i.i_seq)) ] i.i_attrs) ]

let start_key = function Closed s -> (s.start_ns, s.start_seq) | Instant i -> (i.i_ns, i.i_seq)

let to_chrome_json ?limit ?(members = []) c =
  let events =
    match c with
    | None -> []
    | Some c ->
        List.sort (fun a b -> compare (start_key a) (start_key b)) (entries ?n:limit c)
        |> List.map event_json
  in
  Json.to_string
    (Json.Obj
       (("traceEvents", Json.Arr events) :: ("displayTimeUnit", Json.Str "ns") :: members))
  ^ "\n"
