(* Causal span tracing: nesting invariants, anomaly reporting
   (out-of-order closes, spans left open at trace end), Chrome JSON
   well-formedness, end-to-end coverage over a live database, and the
   span-kind hygiene check against the central {!Span.kinds} table. *)

module Span = Bess_obs.Span
module Registry = Bess_obs.Registry
module Vmem = Bess_vmem.Vmem

(* Run [f] against a private collector, leaving the process-global
   tracing state (collector, current-span cursor, registry binding)
   exactly as it was. *)
let with_collector ?capacity f =
  Registry.with_fresh (fun () ->
      let saved = Span.save () in
      let c = Span.create ?capacity () in
      Span.install (Some c);
      Fun.protect ~finally:(fun () -> Span.restore saved) (fun () -> f c))

let find_kind c kind = List.filter (fun s -> s.Span.kind = kind) (Span.to_list c)
let parent_id s = Option.map (fun p -> p.Span.id) s.Span.parent

let test_nesting_and_attrs () =
  with_collector (fun c ->
      Span.with_span ~kind:"session.txn" (fun () ->
          Span.advance_ns 10;
          Span.with_span ~attrs:[ ("src", "1") ] ~kind:"net.rpc" (fun () ->
              Span.advance_ns 100;
              Span.annotate "dst" "2");
          Span.advance_ns 10);
      match Span.to_list c with
      | [ rpc; txn ] ->
          Alcotest.(check string) "child closes first" "net.rpc" rpc.Span.kind;
          Alcotest.(check (option int)) "child parented" (Some txn.Span.id) (parent_id rpc);
          Alcotest.(check (option int)) "root unparented" None (parent_id txn);
          Alcotest.(check bool) "child within parent" true
            (rpc.Span.start_ns > txn.Span.start_ns && rpc.Span.end_ns < txn.Span.end_ns);
          Alcotest.(check bool) "child wide enough" true (Span.duration rpc >= 100);
          Alcotest.(check bool) "parent covers both advances" true (Span.duration txn >= 120);
          Alcotest.(check (option string)) "opening attr kept" (Some "1")
            (List.assoc_opt "src" rpc.Span.attrs);
          Alcotest.(check (option string)) "annotate lands on current" (Some "2")
            (List.assoc_opt "dst" rpc.Span.attrs)
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l))

let test_enter_finish () =
  with_collector (fun c ->
      let h = Span.enter ~kind:"session.txn" () in
      (* Children opened while the handle is current attach to it. *)
      Span.with_span ~kind:"wal.force" (fun () -> Span.advance_ns 5);
      Span.finish ~attrs:[ ("outcome", "commit") ] h;
      let txn = List.hd (find_kind c "session.txn") in
      let force = List.hd (find_kind c "wal.force") in
      Alcotest.(check (option int)) "child of entered span" (Some txn.Span.id)
        (parent_id force);
      Alcotest.(check (option string)) "finish attrs appended" (Some "commit")
        (List.assoc_opt "outcome" txn.Span.attrs);
      (* Double close: a no-op that is still counted. *)
      Span.finish h;
      Alcotest.(check int) "double close counted" 1
        (Bess_util.Stats.get (Span.stats c) "span.double_close"))

let test_out_of_order_close_reported () =
  with_collector (fun c ->
      let a = Span.enter ~kind:"session.txn" () in
      let b = Span.enter ~kind:"lock.acquire" () in
      (* Close the parent first: the child must be reported, not lost. *)
      Span.finish a;
      Span.finish b;
      Alcotest.(check int) "out_of_order counted" 1
        (Bess_util.Stats.get (Span.stats c) "span.out_of_order");
      let child = List.hd (find_kind c "lock.acquire") in
      Alcotest.(check (option string)) "span marked" (Some "true")
        (List.assoc_opt "out_of_order" child.Span.attrs);
      (* Reparented past the closed parent: no open ancestor remains, so
         it becomes a root — and the nesting invariant holds vacuously. *)
      Alcotest.(check (option int)) "reparented to open ancestor" None (parent_id child))

let test_unclosed_reported () =
  with_collector (fun c ->
      let _leak = Span.enter ~kind:"session.txn" () in
      let _leak2 = Span.enter ~kind:"net.rpc" () in
      Span.finish_all c;
      Alcotest.(check int) "unclosed counted" 2
        (Bess_util.Stats.get (Span.stats c) "span.unclosed");
      List.iter
        (fun s ->
          Alcotest.(check (option string))
            (s.Span.kind ^ " marked unclosed") (Some "true")
            (List.assoc_opt "unclosed" s.Span.attrs);
          Alcotest.(check bool) (s.Span.kind ^ " got an end stamp") true
            (s.Span.end_ns >= s.Span.start_ns))
        (Span.to_list c);
      (* Inner closed first: stamps still nest, strictly in (ns, seq)
         order even though both spans share their nanoseconds. *)
      match Span.to_list c with
      | [ inner; outer ] ->
          Alcotest.(check bool) "forced closes nest" true
            ((inner.Span.start_ns, inner.Span.start_seq) > (outer.Span.start_ns, outer.Span.start_seq)
            && (inner.Span.end_ns, inner.Span.end_seq) < (outer.Span.end_ns, outer.Span.end_seq))
      | _ -> Alcotest.fail "expected 2 spans")

let test_unknown_kind_rejected () =
  with_collector (fun _c ->
      Alcotest.check_raises "unknown kind raises"
        (Invalid_argument "Span: kind \"no.such.kind\" is not in Span.kinds")
        (fun () -> Span.with_span ~kind:"no.such.kind" (fun () -> ())))

let test_disabled_noop () =
  let saved = Span.installed () in
  Span.install None;
  Fun.protect ~finally:(fun () -> Span.install saved) (fun () ->
      Alcotest.(check bool) "disabled" false (Span.enabled ());
      (* Every entry point must be safe with no collector. *)
      let v = Span.with_span ~kind:"session.txn" (fun () -> 42) in
      Alcotest.(check int) "with_span passes value through" 42 v;
      let h = Span.enter ~kind:"net.rpc" () in
      Span.annotate "k" "v";
      Span.finish h;
      let h' = Span.start ~root:true ~kind:"lock.wait" () in
      Span.finish h')

let test_ring_bounded () =
  with_collector ~capacity:4 (fun c ->
      for _ = 1 to 10 do
        Span.with_span ~kind:"wal.append" (fun () -> ())
      done;
      Alcotest.(check int) "buffer capped" 4 (List.length (Span.to_list c));
      Alcotest.(check int) "evictions counted" 6 (Span.dropped c);
      (* The histogram saw every span, not just the retained ones. *)
      Alcotest.(check int) "histogram complete" 10
        (Bess_util.Histogram.count
           (Option.get (Bess_util.Stats.find_histogram (Span.stats c) "span.wal.append"))))

(* A span whose parent closed and was then evicted before it closed
   itself: the parent is gone, not out of order, so the span is not
   counted [span.out_of_order] and renders as a root, on a track of its
   own. *)
let test_evicted_parent () =
  with_collector ~capacity:2 (fun c ->
      let parent = Span.enter ~kind:"session.txn" () in
      let child = Span.start ~kind:"lock.acquire" () in
      Span.finish parent;
      for _ = 1 to 2 do
        Span.with_span ~kind:"wal.append" ignore
      done;
      Span.finish child;
      Alcotest.(check int) "not out of order" 0
        (Bess_util.Stats.get (Span.stats c) "span.out_of_order");
      let s = List.hd (find_kind c "lock.acquire") in
      Alcotest.(check bool) "no out_of_order attribute" false
        (List.mem_assoc "out_of_order" s.Span.attrs);
      let module J = Bess_obs.Json in
      let ev =
        List.find
          (fun ev -> J.get_string ev "name" = "lock.acquire")
          (J.get_list (J.parse_exn (Span.to_chrome_json (Some c))) "traceEvents")
      in
      Alcotest.(check int) "own track" s.Span.id (J.get_int ev "tid");
      Alcotest.(check string) "parent id kept" "1"
        (J.get_string (Option.get (J.member "args" ev)) "parent"))

(* ---- Chrome trace JSON -------------------------------------------------- *)

(* A minimal recursive-descent JSON parser: enough to validate the
   trace_event output without external dependencies. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      skip_ws ();
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | ('"' | '\\' | '/') as c -> Buffer.add_char b c
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                (* Preserve escapes verbatim; equality is all we need. *)
                Buffer.add_string b "\\u"
            | c -> raise (Bad (Printf.sprintf "bad escape %c" c)));
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '"' -> Str (parse_string ())
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then (advance (); Obj [])
          else
            let rec members acc =
              let k = parse_string () in
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); skip_ws (); members ((k, v) :: acc)
              | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
              | c -> raise (Bad (Printf.sprintf "bad object char %c" c))
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then (advance (); List [])
          else
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); elements (v :: acc)
              | ']' -> advance (); List (List.rev (v :: acc))
              | c -> raise (Bad (Printf.sprintf "bad array char %c" c))
            in
            elements []
      | 't' -> pos := !pos + 4; Bool true
      | 'f' -> pos := !pos + 5; Bool false
      | 'n' -> pos := !pos + 4; Null
      | _ ->
          let start = !pos in
          while
            !pos < n
            && (match s.[!pos] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
          do
            advance ()
          done;
          if !pos = start then raise (Bad (Printf.sprintf "bad value at %d" start));
          Num (float_of_string (String.sub s start (!pos - start)))
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  let num = function Num f -> f | _ -> raise (Bad "number expected")
  let str = function Str s -> s | _ -> raise (Bad "string expected")
end

let test_chrome_json_roundtrip () =
  with_collector (fun c ->
      Span.with_span ~kind:"session.txn" (fun () ->
          Span.advance_ns 10;
          Span.with_span ~attrs:[ ("op", "commit \"quoted\"\n") ] ~kind:"net.rpc" (fun () ->
              Span.advance_ns 1_000);
          Span.with_span ~kind:"wal.force" (fun () -> Span.advance_ns 100_000));
      let json = Span.to_chrome_json (Some c) in
      let root = Json.parse json in
      let events =
        match Json.member "traceEvents" root with
        | Some (Json.List evs) -> evs
        | _ -> Alcotest.fail "traceEvents array missing"
      in
      Alcotest.(check int) "all spans exported" 3 (List.length events);
      let by_id = Hashtbl.create 8 in
      List.iter
        (fun ev ->
          (* Shape of every event. *)
          Alcotest.(check string) "complete event" "X"
            (Json.str (Option.get (Json.member "ph" ev)));
          Alcotest.(check bool) "kind is known" true
            (List.mem (Json.str (Option.get (Json.member "name" ev))) Span.kinds);
          Alcotest.(check bool) "duration non-negative" true
            (Json.num (Option.get (Json.member "dur" ev)) >= 0.0);
          let args = Option.get (Json.member "args" ev) in
          let id = int_of_string (Json.str (Option.get (Json.member "id" args))) in
          Hashtbl.replace by_id id ev)
        events;
      (* Nesting: every child's [ts, ts+dur] inside its parent's. The
         0.001us resolution represents 1ns exactly, so exact bounds with
         a float-rounding epsilon. *)
      List.iter
        (fun ev ->
          let args = Option.get (Json.member "args" ev) in
          match Json.member "parent" args with
          | None -> ()
          | Some p -> (
              match Hashtbl.find_opt by_id (int_of_string (Json.str p)) with
              | None -> ()
              | Some pe ->
                  let ts e = Json.num (Option.get (Json.member "ts" e)) in
                  let fin e = ts e +. Json.num (Option.get (Json.member "dur" e)) in
                  Alcotest.(check bool) "child starts after parent" true
                    (ts ev >= ts pe -. 1e-6);
                  Alcotest.(check bool) "child ends before parent" true
                    (fin ev <= fin pe +. 1e-6)))
        events;
      (* Attributes with JSON metacharacters survive the round trip. *)
      let rpc =
        List.find
          (fun ev -> Json.str (Option.get (Json.member "name" ev)) = "net.rpc")
          events
      in
      Alcotest.(check string) "attr escaped and recovered" "commit \"quoted\"\n"
        (Json.str (Option.get (Json.member "op" (Option.get (Json.member "args" rpc))))))

(* ---- End to end over a live database ------------------------------------ *)

let test_end_to_end_spans () =
  with_collector (fun c ->
      let db = Bess.Db.create_memory ~db_id:701 () in
      let net = Bess.Remote.network () in
      Bess.Remote.serve net (Bess.Db.server db);
      let s = Bess.Remote.session net ~client_id:71 db in
      let ty =
        Bess.Type_desc.register
          (Bess.Catalog.types (Bess.Db.catalog db))
          ~name:"spans_t" ~size:32 ~ref_offsets:[| 0 |]
      in
      Bess.Session.begin_txn s;
      let seg = Bess.Session.create_segment s ~slotted_pages:2 ~data_pages:4 () in
      let o = Bess.Session.create_object s seg ty ~size:32 in
      Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) 99;
      Bess.Session.commit s;
      Span.finish_all c;
      let spans = Span.to_list c in
      List.iter
        (fun kind ->
          Alcotest.(check bool) (kind ^ " present") true
            (List.exists (fun s -> s.Span.kind = kind) spans))
        [ "session.txn"; "net.rpc"; "net.wire"; "server.request"; "lock.acquire";
          "wal.append"; "wal.force"; "vmem.fault"; "cache.miss" ];
      (* Global nesting invariant over everything collected. *)
      List.iter
        (fun s ->
          Alcotest.(check bool) "closed" true (s.Span.end_ns >= s.Span.start_ns);
          match Span.live_parent s with
          | Some p ->
              Alcotest.(check bool)
                (Printf.sprintf "%s(%d) within %s(%d)" s.Span.kind s.Span.id p.Span.kind
                   p.Span.id)
                true
                (s.Span.start_ns >= p.Span.start_ns && s.Span.end_ns <= p.Span.end_ns)
          | None -> () (* a root, or its parent was evicted *))
        spans;
      (* The session.txn root and a transitive net.rpc descendant agree. *)
      Alcotest.(check bool) "some txn has rpc descendants" true
        (List.exists
           (fun rpc ->
             rpc.Span.kind = "net.rpc"
             &&
             let rec root_of s =
               match Span.live_parent s with Some p -> root_of p | None -> s
             in
             (root_of rpc).Span.kind = "session.txn")
           spans))

(* ---- Hygiene: call sites vs the central kinds table ---------------------- *)

let test_span_kinds_complete () =
  (* Every ~kind:"..." literal passed to Span in lib/ must be listed in
     Span.kinds. *)
  let kinds =
    List.filter_map
      (fun line ->
        (* ~kind:"x.y" -> x.y *)
        match String.index_opt line '"' with
        | Some i ->
            let j = String.rindex line '"' in
            if j > i then Some (String.sub line (i + 1) (j - i - 1)) else None
        | None -> None)
      (Lib_sources.matches {|~kind:"[a-z._]*"|})
  in
  Alcotest.(check bool) "grep found the instrumentation" true (kinds <> []);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "%S listed in Span.kinds" k)
        true (List.mem k Span.kinds))
    kinds

(* A scoped install whose body raises puts back every plane it found:
   the outer collector with its ambient span, critpath sink and series,
   and the fault arming, disarmed or armed. *)
let test_scoped_install_restores () =
  let module Planes = Bess_sched.Planes in
  let module Critpath = Bess_obs.Critpath in
  let module Series = Bess_obs.Series in
  let module Fault = Bess_fault.Fault in
  let is x = function Some y -> y == x | None -> false in
  let raising ~faults =
    match
      Planes.with_installed ~spans:(Span.create ()) ~critpath:(Critpath.create ())
        ~series:(Series.create ()) ~faults (fun () ->
          Alcotest.(check bool) "armed inside" true (Fault.armed ());
          failwith "body raised")
    with
    | () -> Alcotest.fail "the body's exception was swallowed"
    | exception Failure _ -> ()
  in
  with_collector (fun outer ->
      let cp = Critpath.create () and series = Series.create () in
      Critpath.install (Some cp);
      Series.install (Some series);
      Fun.protect
        ~finally:(fun () ->
          Series.install None;
          Critpath.install None;
          Fault.reset ())
        (fun () ->
          (* Inside an outer span, a scoped install (returning or raising)
             leaves later spans parented to it. *)
          Span.with_span ~kind:"bench.workload" (fun () ->
              Planes.with_installed ~spans:(Span.create ()) ignore;
              Span.with_span ~kind:"wal.force" ignore;
              raising ~faults:(7, List.assoc "chaos" Fault.profiles);
              Span.with_span ~kind:"wal.append" ignore);
          let parent kind = parent_id (List.hd (find_kind outer kind)) in
          let workload = Some (List.hd (find_kind outer "bench.workload")).Span.id in
          Alcotest.(check (option int)) "ambient span back after a return" workload
            (parent "wal.force");
          Alcotest.(check (option int)) "ambient span back after a raise" workload
            (parent "wal.append");
          Alcotest.(check bool) "outer collector back" true (is outer (Span.installed ()));
          Alcotest.(check bool) "outer critpath back" true (is cp (Critpath.installed ()));
          Alcotest.(check bool) "outer series back" true (is series (Series.installed ()));
          Alcotest.(check bool) "faults disarmed again" false (Fault.armed ());
          let flaky = List.assoc "flaky-disk" Fault.profiles in
          Fault.seed 3;
          Fault.apply_profile flaky;
          let before = Fault.configured () in
          raising ~faults:(9, List.assoc "flaky-net" Fault.profiles);
          Alcotest.(check bool) "outer profile re-armed" true (Fault.configured () = before)))

let suite =
  [
    Alcotest.test_case "nesting_and_attrs" `Quick test_nesting_and_attrs;
    Alcotest.test_case "enter_finish" `Quick test_enter_finish;
    Alcotest.test_case "out_of_order_close_reported" `Quick test_out_of_order_close_reported;
    Alcotest.test_case "unclosed_reported" `Quick test_unclosed_reported;
    Alcotest.test_case "unknown_kind_rejected" `Quick test_unknown_kind_rejected;
    Alcotest.test_case "disabled_noop" `Quick test_disabled_noop;
    Alcotest.test_case "ring_bounded" `Quick test_ring_bounded;
    Alcotest.test_case "evicted_parent" `Quick test_evicted_parent;
    Alcotest.test_case "chrome_json_roundtrip" `Quick test_chrome_json_roundtrip;
    Alcotest.test_case "end_to_end_spans" `Quick test_end_to_end_spans;
    Alcotest.test_case "span_kinds_complete" `Quick test_span_kinds_complete;
    Alcotest.test_case "scoped_install_restores" `Quick test_scoped_install_restores;
  ]
