(* The black-box flight recorder.

   When armed, [dump ~reason] bundles the system's recent behaviour into
   one JSON artifact: the last N completed spans and trace events, every
   recorded fault firing (as Chrome "instant" events on the same
   timeline), the current registry snapshot (counters + gauges) and the
   installed {!Series} ring. The top-level object doubles as a Chrome
   trace_event file — [traceEvents] holds the spans as "X" events with
   the fault firings interleaved as "i" instants, so the artifact loads
   directly in Perfetto — while the extra sections make it replayable by
   [bessctl flightrec] and by tests through {!Json}.

   Dumps happen automatically at the interesting moments: chaos-assertion
   failure, crash, and recovery (the store calls [dump] at each; a no-op
   while disarmed, which is the default — tests and production paths pay
   one ref read).

   Fault data crosses a dependency boundary: bess_fault sits *above*
   bess_obs, so the fault registry hands its recent-firings reader to
   [set_fault_source] at module-initialisation time instead of being
   called directly. *)

type armed_state = {
  dir : string;
  max_spans : int;
  mutable seq : int;
}

let state : armed_state option ref = ref None

(* (site, ordinal, ts_ns) of recent fault firings, oldest first. *)
let fault_source : (unit -> (string * int * int) list) ref = ref (fun () -> [])
let set_fault_source f = fault_source := f
let fault_firings () = !fault_source ()

(* Auxiliary sections: other planes (the slow-transaction reservoir)
   register a named JSON producer here and it rides along in every
   dump as a top-level ["aux_<name>"] member. The producer must return
   one complete JSON value. *)
let aux_sources : (string, unit -> string) Hashtbl.t = Hashtbl.create 4
let set_aux_source name fn = Hashtbl.replace aux_sources name fn
let clear_aux_source name = Hashtbl.remove aux_sources name

let arm ?(max_spans = 2048) ~dir () = state := Some { dir; max_spans; seq = 0 }

let disarm () = state := None
let armed () = !state <> None

(* ---- Rendering ------------------------------------------------------------- *)

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let take_last n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

(* The span's track (tid) is its root ancestor, matching
   Span.to_chrome_json: each transaction renders as its own row. Only
   the retained tail is dumped, so the root link is resolved against a
   local index of that tail. *)
let span_events buf ~max_spans col =
  let spans = take_last max_spans (Span.to_list col) in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Span.span) -> Hashtbl.replace by_id s.Span.id s) spans;
  let rec root_of (s : Span.span) =
    match s.Span.parent with
    | None -> s.Span.id
    | Some pid -> (
        match Hashtbl.find_opt by_id pid with None -> s.Span.id | Some p -> root_of p)
  in
  let first = ref true in
  List.iter
    (fun (s : Span.span) ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%s,\"cat\":\"bess\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":\"%d\""
           (Registry.json_string s.Span.kind)
           (float_of_int s.Span.start_ns /. 1000.0)
           (float_of_int (Span.duration s) /. 1000.0)
           (root_of s) s.Span.id);
      (match s.Span.parent with
      | Some p -> Buffer.add_string buf (Printf.sprintf ",\"parent\":\"%d\"" p)
      | None -> ());
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf ",%s:%s" (Registry.json_string k) (Registry.json_string v)))
        s.Span.attrs;
      Buffer.add_string buf "}}")
    spans;
  not !first

let fault_events buf ~had_spans =
  let firings = !fault_source () in
  let first = ref (not had_spans) in
  List.iter
    (fun (site, ordinal, ts_ns) ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%s,\"cat\":\"fault\",\"ph\":\"i\",\"ts\":%.3f,\"s\":\"g\",\"pid\":1,\"tid\":0,\"args\":{\"ordinal\":%d}}"
           (Registry.json_string ("fault:" ^ site))
           (float_of_int ts_ns /. 1000.0)
           ordinal))
    firings

(* A dump carries at most this many of the newest trace events. *)
let max_events = 1024

let render ?(max_spans = 2048) ~reason () =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "{\"bess_flightrec\":1,";
  Buffer.add_string buf (Printf.sprintf "\"reason\":%s," (Registry.json_string reason));
  Buffer.add_string buf
    (Printf.sprintf "\"wall_time\":%s," (Registry.json_string (iso8601 (Unix.gettimeofday ()))));
  Buffer.add_string buf (Printf.sprintf "\"sim_now_ns\":%d," (Span.now_ns ()));
  (* Spans + fault instants on one Chrome timeline. *)
  Buffer.add_string buf "\"traceEvents\":[";
  let had_spans =
    match Span.installed () with
    | None -> false
    | Some col -> span_events buf ~max_spans col
  in
  fault_events buf ~had_spans;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\",";
  (* Primitive event ring (Core.Event feed). *)
  Buffer.add_string buf "\"events\":[";
  List.iteri
    (fun i (e : Trace.entry) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"seq\":%d,\"clock\":%d,\"kind\":%s,\"detail\":%s}" e.Trace.seq
           e.Trace.clock
           (Registry.json_string e.Trace.kind)
           (Registry.json_string e.Trace.detail)))
    (take_last max_events (Trace.to_list Trace.default));
  Buffer.add_string buf "],";
  (* Point-in-time registry state and the windowed series, if sampling. *)
  Buffer.add_string buf "\"snapshot\":";
  Buffer.add_string buf (Registry.json_of_snapshot (Registry.snapshot ()));
  (match Series.installed () with
  | None -> ()
  | Some series ->
      Series.flush series;
      Buffer.add_string buf ",\"series\":";
      Buffer.add_string buf (Series.json_of series));
  (* Registered aux sections, sorted for a stable artifact layout. A
     producer that raises is dropped, the same policy as gauges. *)
  Hashtbl.fold (fun name fn acc -> (name, fn) :: acc) aux_sources []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, fn) ->
         match fn () with
         | body ->
             Buffer.add_string buf (Printf.sprintf ",\"aux_%s\":" name);
             Buffer.add_string buf body
         | exception _ -> ());
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ---- Dumping ---------------------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Sanitise the reason into a filename component. *)
let slug s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '-')
    s

let dump ~reason () =
  match !state with
  | None -> None
  | Some st ->
      let body = render ~max_spans:st.max_spans ~reason () in
      mkdir_p st.dir;
      let path =
        Filename.concat st.dir (Printf.sprintf "flightrec-%03d-%s.json" st.seq (slug reason))
      in
      st.seq <- st.seq + 1;
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
      Some path

(* ---- Loading and replay ----------------------------------------------------- *)

type item =
  | Span_item of {
      kind : string;
      start_ns : int;
      end_ns : int;
      track : int;
      attrs : (string * string) list;
    }
  | Fault_item of { site : string; ordinal : int; ts_ns : int }

let item_ts = function
  | Span_item { start_ns; _ } -> start_ns
  | Fault_item { ts_ns; _ } -> ts_ns

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | body -> Json.parse body

let us_to_ns f = int_of_float (Float.round (f *. 1000.0))

(* The Chrome timeline back as typed items, sorted by start time — fault
   instants interleave with the spans they fired inside. *)
let replay j =
  let items =
    List.filter_map
      (fun ev ->
        let name = Json.get_string ev "name" in
        let ts =
          match Option.bind (Json.member "ts" ev) Json.to_float with
          | Some f -> us_to_ns f
          | None -> 0
        in
        match Json.get_string ev "ph" with
        | "X" ->
            let dur =
              match Option.bind (Json.member "dur" ev) Json.to_float with
              | Some f -> us_to_ns f
              | None -> 0
            in
            let attrs =
              match Option.bind (Json.member "args" ev) Json.to_obj with
              | None -> []
              | Some fields ->
                  List.filter_map
                    (fun (k, v) ->
                      match Json.to_string v with Some s -> Some (k, s) | None -> None)
                    fields
            in
            Some
              (Span_item
                 {
                   kind = name;
                   start_ns = ts;
                   end_ns = ts + dur;
                   track = Json.get_int ev "tid";
                   attrs;
                 })
        | "i" ->
            let site =
              if String.length name > 6 && String.sub name 0 6 = "fault:" then
                String.sub name 6 (String.length name - 6)
              else name
            in
            let ordinal =
              match Json.member "args" ev with
              | Some args -> Json.get_int args "ordinal"
              | None -> 0
            in
            Some (Fault_item { site; ordinal; ts_ns = ts })
        | _ -> None)
      (Json.get_list j "traceEvents")
  in
  List.stable_sort (fun a b -> compare (item_ts a) (item_ts b)) items

let pp_item ppf = function
  | Span_item { kind; start_ns; end_ns; track; attrs } ->
      Fmt.pf ppf "[%10dns] span  %-18s dur=%dns tid=%d" start_ns kind (end_ns - start_ns)
        track;
      List.iter
        (fun (k, v) -> if k <> "id" && k <> "parent" then Fmt.pf ppf " %s=%s" k v)
        attrs
  | Fault_item { site; ordinal; ts_ns } ->
      Fmt.pf ppf "[%10dns] FAULT %-18s ordinal=%d" ts_ns site ordinal
