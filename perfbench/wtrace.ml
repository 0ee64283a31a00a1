(* The benchmark's own spans, on the wall clock: a root per transaction
   (oo_sessions) or per driver call, with children around the calls the
   benchmark makes into each layer. Recording is off until [enable];
   spans stay in memory and are written out once, in Chrome trace_event
   format, when the run ends. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref 0

let enable () = on := true

let fresh () =
  incr next_id;
  !next_id

(* A finished span with explicit stamps, a child of [parent] (default:
   the current span). Returns its id, 0 while recording is off. *)
let record ?parent name t0 t1 =
  if not !on then 0
  else begin
    let id = fresh () in
    let parent = Option.value ~default:!current parent in
    spans := { id; parent; name; t0; t1 } :: !spans;
    id
  end

let with_span name f =
  if not !on then f ()
  else begin
    let id = fresh () and parent = !current and t0 = Unix.gettimeofday () in
    current := id;
    Fun.protect
      ~finally:(fun () ->
        current := parent;
        spans := { id; parent; name; t0; t1 = Unix.gettimeofday () } :: !spans)
      f
  end

(* Complete ("X") events in microseconds from the first span; each span
   sits on the track of its root, so every transaction is its own row. *)
let chrome_json () =
  let all = List.rev !spans in
  let parents = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace parents s.id s.parent) all;
  let rec root id =
    match Hashtbl.find_opt parents id with Some p when p <> 0 -> root p | _ -> id
  in
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let event s =
    Printf.sprintf
      "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}"
      (Bess_obs.Registry.json_string s.name)
      ((s.t0 -. origin) *. 1e6)
      ((s.t1 -. s.t0) *. 1e6)
      (root s.id) s.id s.parent
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.map event all) ^ "\n]}\n"
