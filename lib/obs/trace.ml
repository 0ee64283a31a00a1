(* The bounded trace ring.

   {!Core.Event.fire} feeds every primitive event into a ring of the last
   N entries, stamped with a logical clock, so a fault wave or a
   lock/deadlock sequence can be replayed in tests and post-mortems
   without unbounded memory. The clock advances on every [record] call --
   including ones a filter drops -- so surviving entries keep their true
   relative order even under filtering.

   Filters are per-kind allow-lists: [set_filter t (Some ["deadlock";
   "txn_abort"])] keeps only those kinds; [None] keeps everything. *)

type entry = { seq : int; clock : int; kind : string; detail : string }

(* The ring keeps each entry's fields in parallel arrays, and the detail
   as the closure that renders it: [record] neither formats nor
   allocates an entry; [to_list] renders what it returns. A renderer
   must read only immutable data, since it runs whenever the ring is
   read. *)
type t = {
  seqs : int array;
  clocks : int array;
  kinds : string array;
  renders : (unit -> string) array;
  mutable head : int; (* next write position *)
  mutable length : int;
  mutable clock : int;
  mutable next_seq : int;
  mutable filter : (string, unit) Hashtbl.t option; (* None = record all kinds *)
}

let no_detail () = ""

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { seqs = Array.make capacity 0; clocks = Array.make capacity 0; kinds = Array.make capacity "";
    renders = Array.make capacity no_detail; head = 0; length = 0; clock = 0; next_seq = 0;
    filter = None }

(* The default, process-wide ring that freshly created hook tables feed. *)
let default = create ~capacity:4096 ()

let capacity t = Array.length t.seqs
let length t = t.length
let clock t = t.clock

let set_filter t kinds =
  t.filter <-
    Option.map
      (fun ks ->
        let h = Hashtbl.create (List.length ks) in
        List.iter (fun k -> Hashtbl.replace h k ()) ks;
        h)
      kinds

let accepts t kind =
  match t.filter with None -> true | Some h -> Hashtbl.mem h kind

let record_lazy t ~kind render =
  t.clock <- t.clock + 1;
  if accepts t kind then begin
    let i = t.head in
    t.seqs.(i) <- t.next_seq;
    t.clocks.(i) <- t.clock;
    t.kinds.(i) <- kind;
    t.renders.(i) <- render;
    t.next_seq <- t.next_seq + 1;
    t.head <- (if i + 1 = capacity t then 0 else i + 1);
    if t.length < capacity t then t.length <- t.length + 1
  end

let record t ~kind ~detail = record_lazy t ~kind (fun () -> detail)

(* Oldest first. *)
let to_list t =
  let cap = capacity t in
  let first = (t.head - t.length + cap) mod cap in
  List.init t.length (fun n ->
      let i = (first + n) mod cap in
      { seq = t.seqs.(i); clock = t.clocks.(i); kind = t.kinds.(i); detail = t.renders.(i) () })

let find t ~kind = List.filter (fun e -> e.kind = kind) (to_list t)

(* Drop the renderers too, so a cleared ring keeps nothing alive. *)
let clear t =
  Array.fill t.kinds 0 (capacity t) "";
  Array.fill t.renders 0 (capacity t) no_detail;
  t.head <- 0;
  t.length <- 0

(* Scoped reset: the default ring is process-global, so a test that
   wants a clean replay window must not destroy what earlier code
   recorded. [f] runs against a zeroed ring (clock, seq and filter
   included); the prior contents are restored afterwards. *)
let with_fresh ?(trace = default) f =
  let saved_seqs = Array.copy trace.seqs and saved_clocks = Array.copy trace.clocks in
  let saved_kinds = Array.copy trace.kinds and saved_renders = Array.copy trace.renders in
  let saved_head = trace.head and saved_length = trace.length in
  let saved_clock = trace.clock and saved_seq = trace.next_seq in
  let saved_filter = trace.filter in
  clear trace;
  trace.clock <- 0;
  trace.next_seq <- 0;
  trace.filter <- None;
  Fun.protect
    ~finally:(fun () ->
      let cap = capacity trace in
      Array.blit saved_seqs 0 trace.seqs 0 cap;
      Array.blit saved_clocks 0 trace.clocks 0 cap;
      Array.blit saved_kinds 0 trace.kinds 0 cap;
      Array.blit saved_renders 0 trace.renders 0 cap;
      trace.head <- saved_head;
      trace.length <- saved_length;
      trace.clock <- saved_clock;
      trace.next_seq <- saved_seq;
      trace.filter <- saved_filter)
    f

let pp_entry ppf e = Fmt.pf ppf "[%d @%d] %s %s" e.seq e.clock e.kind e.detail

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_entry) (to_list t)
