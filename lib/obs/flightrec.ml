(* The black-box flight recorder.

   When armed, [dump ~reason] bundles the system's recent behaviour into
   one JSON artifact: the newest entries of the installed span collector
   — spans, and the instants recorded beside them (primitive events,
   fault firings) — the current registry snapshot
   (counters + gauges) and the installed {!Series} ring. The artifact is
   a Chrome trace_event file rendered by {!Span.to_chrome_json}, so it
   loads directly in Perfetto, while the extra sections make it
   replayable by [bessctl flightrec] and by tests through {!Json}.

   Dumps happen automatically at the interesting moments: chaos-assertion
   failure, crash, and recovery (the store calls [dump] at each; a no-op
   while disarmed, which is the default — tests and production paths pay
   one ref read). *)

type armed_state = { dir : string; mutable seq : int }

(* The newest spans and instants a dump keeps. *)
let max_spans = 2048

let state : armed_state option ref = ref None

(* Auxiliary sections: other planes (the slow-transaction reservoir)
   register a named JSON producer here and it rides along in every
   dump as a top-level ["aux_<name>"] member. *)
let aux_sources : (string, unit -> Json.t) Hashtbl.t = Hashtbl.create 4
let set_aux_source name fn = Hashtbl.replace aux_sources name fn
let clear_aux_source name = Hashtbl.remove aux_sources name

let arm ~dir () = state := Some { dir; seq = 0 }

let disarm () = state := None
let armed () = !state <> None

(* ---- Rendering ------------------------------------------------------------- *)

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let render ~reason () =
  let members =
    [ ("bess_flightrec", Json.int 1);
      ("reason", Json.Str reason);
      ("wall_time", Json.Str (iso8601 (Unix.gettimeofday ())));
      ("sim_now_ns", Json.int (Span.now_ns ()));
      (* Point-in-time registry state and the windowed series, if sampling. *)
      ("snapshot", Registry.json_of_snapshot (Registry.snapshot ())) ]
    @ (match Series.installed () with
      | None -> []
      | Some series ->
          Series.flush series;
          [ ("series", Series.json_of series) ])
    (* Registered aux sections, sorted for a stable artifact layout. A
       producer that raises is dropped, the same policy as gauges. *)
    @ (Hashtbl.fold (fun name fn acc -> (name, fn) :: acc) aux_sources []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.filter_map (fun (name, fn) ->
             match fn () with body -> Some ("aux_" ^ name, body) | exception _ -> None))
  in
  Span.to_chrome_json ~limit:max_spans ~members (Span.installed ())

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
      let body = render ~reason () in
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
  | Instant_item of { name : string; ts_ns : int; attrs : (string * string) list }

let item_ts = function
  | Span_item { start_ns; _ } -> start_ns
  | Instant_item { ts_ns; _ } -> ts_ns

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

(* The Chrome timeline back as typed items. The array is in (ns, seq)
   order of start, so a stable sort by start time keeps
   same-nanosecond ties in record order. *)
let replay j =
  let items =
    List.filter_map
      (fun ev ->
        let name = Json.get_string ev "name" in
        let us key =
          match Option.bind (Json.member key ev) Json.to_float with
          | Some f -> us_to_ns f
          | None -> 0
        in
        let ts = us "ts" in
        let attrs =
          match Option.bind (Json.member "args" ev) Json.to_obj with
          | None -> []
          | Some fields ->
              List.filter_map
                (fun (k, v) -> match v with Json.Str s -> Some (k, s) | _ -> None)
                fields
        in
        match Json.get_string ev "ph" with
        | "X" ->
            Some
              (Span_item
                 { kind = name; start_ns = ts; end_ns = ts + us "dur"; track = Json.get_int ev "tid";
                   attrs })
        | "i" -> Some (Instant_item { name; ts_ns = ts; attrs })
        | _ -> None)
      (Json.get_list j "traceEvents")
  in
  List.stable_sort (fun a b -> compare (item_ts a) (item_ts b)) items

let pp_attrs ppf attrs =
  List.iter
    (fun (k, v) -> if k <> "id" && k <> "parent" && k <> "seq" then Fmt.pf ppf " %s=%s" k v)
    attrs

let pp_item ppf = function
  | Span_item { kind; start_ns; end_ns; track; attrs } ->
      Fmt.pf ppf "[%10dns] span    %-18s dur=%dns tid=%d%a" start_ns kind (end_ns - start_ns)
        track pp_attrs attrs
  | Instant_item { name; ts_ns; attrs } ->
      Fmt.pf ppf "[%10dns] instant %-18s%a" ts_ns name pp_attrs attrs
