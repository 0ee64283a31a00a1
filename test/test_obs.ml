(* bess_obs: the metrics registry (snapshots, key flattening, JSON)
   and the span collector's bounded ring of instants, plus the Stats
   extensions they rely on, primitive events recorded as instants and
   the event-hook ordering regression. *)

module Registry = Bess_obs.Registry
module Span = Bess_obs.Span
module Stats = Bess_util.Stats

(* Run [f] against a private collector of [capacity] entries, putting
   back the collector (and ambient span) found. *)
let with_collector ?capacity f =
  Registry.with_fresh (fun () ->
      let saved = Span.save () in
      let c = Span.create ?capacity () in
      Span.install (Some c);
      Fun.protect ~finally:(fun () -> Span.restore saved) (fun () -> f c))

let details c = List.map (fun (i : Span.instant) -> snd (List.hd i.i_attrs)) (Span.instants c)

(* An instant's attributes as [k=v] text. *)
let payload (i : Span.instant) =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) i.i_attrs)

let test_registry_snapshot_diff () =
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Registry.register_stats "wal" st;
  Stats.incr st "log.appends";
  Stats.add st "forces" 3;
  let before = Registry.snapshot () in
  Alcotest.(check (list (pair string int)))
    "flattened keys: namespaced kept, bare prefixed"
    [ ("wal.forces", 3); ("wal.log.appends", 1) ]
    (Registry.counters before);
  Stats.incr st "log.appends";
  Stats.incr st "log.appends";
  Alcotest.(check (list (pair string int)))
    "a snapshot is a point in time" [ ("wal.forces", 3); ("wal.log.appends", 1) ]
    (Registry.counters before);
  Alcotest.(check (list (pair string int)))
    "a later snapshot reads the grown counters whole"
    [ ("wal.forces", 3); ("wal.log.appends", 3) ]
    (Registry.counters (Registry.snapshot ()))

let test_registry_replace_and_histograms () =
  Registry.with_fresh @@ fun () ->
  let st1 = Stats.create () in
  Stats.incr st1 "c";
  Registry.register_stats "lock" st1;
  (* Registering a key again rebinds it. *)
  let st2 = Stats.create () in
  Stats.observe st2 "lock.wait_ns" 4;
  Stats.observe st2 "lock.wait_ns" 8;
  Registry.register_stats "lock" st2;
  let snap = Registry.snapshot () in
  Alcotest.(check (list (pair string int))) "old instance gone" [] (Registry.counters snap);
  (match Registry.histograms snap with
  | [ (name, h) ] ->
      Alcotest.(check string) "histogram key" "lock.wait_ns" name;
      Alcotest.(check int) "count" 2 h.Registry.h_count;
      Alcotest.(check int) "sum" 12 h.Registry.h_sum
  | l -> Alcotest.fail (Printf.sprintf "expected one histogram, got %d" (List.length l)));
  let json = Bess_obs.Json.to_string (Registry.json_of_snapshot snap) in
  Alcotest.(check bool) "json has histogram" true
    (let needle = "\"lock.wait_ns\"" in
     let rec search i =
       i + String.length needle <= String.length json
       && (String.sub json i (String.length needle) = needle || search (i + 1))
     in
     search 0)

let test_labeled_counters () =
  let st = Stats.create () in
  Stats.incr_labeled st "net.calls" ~label:"1->2";
  Stats.incr_labeled st "net.calls" ~label:"1->2";
  Stats.incr_labeled st "net.calls" ~label:"2->1";
  Alcotest.(check int) "per-label" 2 (Stats.get_labeled st "net.calls" ~label:"1->2");
  Alcotest.(check int) "other label" 1 (Stats.get_labeled st "net.calls" ~label:"2->1");
  Alcotest.(check int) "unseen label" 0 (Stats.get_labeled st "net.calls" ~label:"9->9")

let test_stats_observe () =
  let st = Stats.create () in
  ignore (Stats.histogram st "bytes") (* eager: visible before samples *);
  Alcotest.(check int) "eager histogram listed" 1 (List.length (Stats.histograms st));
  List.iter (Stats.observe st "bytes") [ 1; 2; 4; 100 ];
  let h = Option.get (Stats.find_histogram st "bytes") in
  Alcotest.(check int) "count" 4 (Bess_util.Histogram.count h);
  Alcotest.(check int) "sum" 107 (Bess_util.Histogram.sum h);
  Stats.reset st;
  Alcotest.(check int) "reset empties histograms" 0
    (Bess_util.Histogram.count (Option.get (Stats.find_histogram st "bytes")))

let test_trace_bounded_eviction () =
  with_collector ~capacity:4 (fun c ->
      for i = 1 to 10 do
        Span.instant "k" ~attrs:[ ("n", string_of_int i) ]
      done;
      Alcotest.(check int) "evictions counted" 6 (Span.dropped c);
      Alcotest.(check (list string)) "oldest evicted, order kept" [ "7"; "8"; "9"; "10" ]
        (details c);
      Alcotest.(check (list int)) "one sequence number each" [ 6; 7; 8; 9 ]
        (List.map (fun (i : Span.instant) -> i.i_seq) (Span.instants c)))

let test_trace_wrap_exact_capacity () =
  (* Exactly [capacity] entries: full ring, nothing evicted yet; one
     more entry evicts exactly the oldest. *)
  with_collector ~capacity:4 (fun c ->
      for i = 1 to 4 do
        Span.instant "k" ~attrs:[ ("n", string_of_int i) ]
      done;
      Alcotest.(check int) "full at exact capacity" 0 (Span.dropped c);
      Alcotest.(check (list string)) "all four retained" [ "1"; "2"; "3"; "4" ] (details c);
      Span.instant "k" ~attrs:[ ("n", "5") ];
      Alcotest.(check (list string)) "wrap evicts only the oldest" [ "2"; "3"; "4"; "5" ]
        (details c);
      Alcotest.(check int) "one eviction" 1 (Span.dropped c))

let test_registry_with_fresh () =
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Stats.incr st "c";
  Registry.register_stats "outer" st;
  (try
     Registry.with_fresh (fun () ->
         Alcotest.(check (list (pair string int)))
           "registry empty inside" []
           (Registry.counters (Registry.snapshot ()));
         let st' = Stats.create () in
         Stats.add st' "x" 9;
         Registry.register_stats "inner" st';
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (list (pair string int)))
    "outer bindings restored, inner gone (even on exception)"
    [ ("outer.c", 1) ]
    (Registry.counters (Registry.snapshot ()))

(* Counter handles across registry scopes: a handle taken before
   [with_fresh] still counts inside it and after, and a handle never
   bumped shows no key in any snapshot. *)
let test_counter_handles_with_fresh () =
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  let hot = Stats.counter st "vmem.tlb_hits" and idle = Stats.counter st "vmem.faults.read" in
  Registry.register_stats "vmem" st;
  Stats.bump hot;
  Registry.with_fresh (fun () ->
      Registry.register_stats "vmem" st;
      Stats.bump hot;
      Alcotest.(check (list (pair string int)))
        "inside with_fresh" [ ("vmem.tlb_hits", 2) ]
        (Registry.counters (Registry.snapshot ())));
  Stats.bump hot;
  Alcotest.(check (list (pair string int)))
    "after with_fresh: one key, idle handle absent" [ ("vmem.tlb_hits", 3) ]
    (Registry.counters (Registry.snapshot ()));
  Alcotest.(check int) "idle handle" 0 (Stats.value idle)

let test_event_feeds_trace () =
  with_collector (fun c ->
      let h = Bess.Event.hooks_create () in
      Bess.Event.fire h (Bess.Event.Txn_commit { txn = 7 });
      Bess.Event.fire h (Bess.Event.Data_fault { seg = 3 });
      (match List.filter (fun (i : Span.instant) -> i.i_name = "txn_commit") (Span.instants c) with
      | [ e ] -> Alcotest.(check string) "payload rendered" "txn=7" (payload e)
      | _ -> Alcotest.fail "commit not traced");
      Alcotest.(check int) "both events recorded" 2 (List.length (Span.instants c)))

(* The lock grant event carries the resource itself; its instant's
   attributes read as the pre-formatted payload did. *)
let test_lock_grant_trace_detail () =
  with_collector (fun c ->
      let server = Bess.Db.server (Bess.Db.create_memory ~db_id:310 ()) in
      let txn = Bess.Server.begin_txn server ~client:1 in
      let r = Bess_lock.Lock_mgr.page_resource ~area:3 ~page:7 in
      Alcotest.(check bool) "granted" true
        (Bess.Server.lock server ~txn r Bess_lock.Lock_mode.X = `Granted);
      match
        List.filter (fun (i : Span.instant) -> i.i_name = "lock_acquired") (Span.instants c)
      with
      | [ e ] ->
          Alcotest.(check string) "rendered detail"
            (Printf.sprintf "txn=%d resource=page(3,7)" txn)
            (payload e)
      | l -> Alcotest.failf "expected one lock_acquired instant, got %d" (List.length l))

(* Observing is free when nobody observes: with no collector installed
   and no hook registered, firing an event allocates nothing. *)
let test_event_fire_allocates_nothing () =
  let saved = Span.save () in
  Span.install None;
  Fun.protect ~finally:(fun () -> Span.restore saved) (fun () ->
      let h = Bess.Event.hooks_create () in
      let e = Bess.Event.Txn_commit { txn = 7 } in
      Bess.Event.fire h e;
      let n = 10_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Bess.Event.fire h e
      done;
      let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
      Alcotest.(check int) "minor words per fire" 0 (int_of_float per_call))

(* Regression: hooks must run in registration order even when many are
   attached to one event (the old list-append registration was quadratic
   and a natural "fix" -- prepending -- would reverse execution order). *)
let test_hook_order_preserved () =
  let h = Bess.Event.hooks_create () in
  let n = 500 in
  let ran = ref [] in
  for i = 1 to n do
    Bess.Event.register h ~event:"txn_begin" (fun _ -> ran := i :: !ran)
  done;
  Bess.Event.fire h (Bess.Event.Txn_begin { txn = 1 });
  Alcotest.(check (list int)) "registration order" (List.init n (fun i -> i + 1))
    (List.rev !ran)

(* ---- gauges, Prometheus exposition ---- *)

let contains hay needle =
  let nl = String.length needle in
  let rec search i =
    i + nl <= String.length hay && (String.sub hay i nl = needle || search (i + 1))
  in
  search 0

let test_registry_gauges () =
  Registry.with_fresh @@ fun () ->
  let v = ref 3 in
  Registry.register_gauge "cache" "resident_pages" (fun () -> !v);
  Registry.register_gauge "wal" "wal.unflushed_bytes" (fun () -> 7);
  let snap = Registry.snapshot () in
  Alcotest.(check (list (pair string int)))
    "gauges sampled and flattened (bare prefixed, namespaced kept)"
    [ ("cache.resident_pages", 3); ("wal.unflushed_bytes", 7) ]
    (Registry.gauges snap);
  v := 10;
  Alcotest.(check (list (pair string int)))
    "a snapshot is a point in time"
    [ ("cache.resident_pages", 3); ("wal.unflushed_bytes", 7) ]
    (Registry.gauges snap);
  (* Registering again rebinds, like stats; a raising callback is dropped
     from the snapshot, not fabricated as 0. *)
  Registry.register_gauge "cache" "resident_pages" (fun () -> 99);
  Registry.register_gauge "wal" "wal.unflushed_bytes" (fun () ->
      failwith "substrate gone");
  Alcotest.(check (list (pair string int)))
    "replacement visible, raising gauge dropped"
    [ ("cache.resident_pages", 99) ]
    (Registry.gauges (Registry.snapshot ()));
  let json = Bess_obs.Json.to_string (Registry.json_of_snapshot (Registry.snapshot ())) in
  Alcotest.(check bool) "json carries gauges" true
    (contains json "\"gauges\":{\"cache.resident_pages\":99}");
  (* A namespace unregisters as one unit: stats binding and gauges. *)
  let st = Stats.create () in
  Stats.incr st "log.forces";
  Registry.register_stats "wal" st;
  Registry.register_gauge "wal" "pending" (fun () -> 1);
  Registry.unregister "wal";
  let snap = Registry.snapshot () in
  Alcotest.(check int) "counters gone" 0 (List.length (Registry.counters snap));
  Alcotest.(check (list (pair string int)))
    "only the other namespace's gauge left" [ ("cache.resident_pages", 99) ]
    (Registry.gauges snap)

let test_with_fresh_restores_all_tables () =
  Registry.with_fresh @@ fun () ->
  Registry.register_gauge "cache" "g" (fun () -> 1);
  let st = Stats.create () in
  Stats.incr st "wal.forces";
  Registry.register_stats "wal" st;
  (try
     Registry.with_fresh (fun () ->
         let inside = Registry.snapshot () in
         Alcotest.(check int) "all tables empty inside" 0
           (List.length (Registry.counters inside) + List.length (Registry.gauges inside));
         Registry.register_gauge "net" "n" (fun () -> 2);
         failwith "boom")
   with Failure _ -> ());
  let snap = Registry.snapshot () in
  Alcotest.(check (list (pair string int)))
    "gauges restored on exception, inner gone" [ ("cache.g", 1) ] (Registry.gauges snap);
  Alcotest.(check (list (pair string int)))
    "stats restored" [ ("wal.forces", 1) ] (Registry.counters snap)

let test_prom_exposition () =
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Stats.incr st "log.forces";
  Stats.incr_labeled st "net.calls" ~label:"1->2";
  Stats.observe st "wal.waits" 8;
  Registry.register_stats "wal" st;
  Registry.register_gauge "cache" "resident_pages" (fun () -> 4);
  let s = Registry.prom_of_snapshot (Registry.snapshot ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" needle) true (contains s needle))
    [
      "# TYPE bess_wal_log_forces counter";
      "bess_wal_log_forces 1";
      "bess_wal_net_calls{label=\"1->2\"} 1";
      "# TYPE bess_cache_resident_pages gauge";
      "bess_cache_resident_pages 4";
      "# TYPE bess_wal_waits summary";
      "bess_wal_waits{quantile=\"0.99\"}";
      "bess_wal_waits_sum 8";
      "bess_wal_waits_count 1";
    ]

(* Hygiene: every dotted metric-name literal in lib/ (Stats calls and
   gauge registrations) must be snake_case with its first component in
   Registry.metric_namespaces — the counter analogue of the span-kinds
   check. *)
let test_metric_names_hygienic () =
  let quoted line =
    match String.index_opt line '"' with
    | Some i ->
        let j = String.rindex line '"' in
        if j > i then Some (String.sub line (i + 1) (j - i - 1)) else None
    | None -> None
  in
  let stats_lines =
    Lib_sources.matches
      {|Stats\.\(incr\|add\|set\|observe\|incr_labeled\|add_labeled\|histogram\|counter\|labeled_counter\|hist\)[^"]*"[a-z0-9_.]+"|}
  in
  (* A registration names its namespace, then the gauge: keep the last
     literal. *)
  let gauge_lines =
    Lib_sources.matches {|register_gauge[^"]*"[a-z0-9_]+" +"[a-z0-9_.]+"|}
    |> List.map (fun m ->
           let i = String.rindex m ' ' + 1 in
           String.sub m i (String.length m - i))
    |> List.sort_uniq compare
  in
  let names = List.filter_map quoted stats_lines @ List.filter_map quoted gauge_lines in
  Alcotest.(check bool) "grep found the instrumentation" true (List.length names > 40);
  let is_component c =
    c <> ""
    && String.for_all (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false) c
  in
  List.iter
    (fun name ->
      (* Literals like "span." are prefixes completed at
         runtime: validate the leading component only. *)
      let parts = String.split_on_char '.' name in
      let parts =
        match List.rev parts with "" :: rest -> List.rev rest | _ -> parts
      in
      (match parts with
      | first :: _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%S starts with a registered namespace" name)
            true
            (List.mem first Registry.metric_namespaces)
      | [] -> Alcotest.failf "empty metric literal %S" name);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%S component %S is snake_case" name c)
            true (is_component c))
        parts)
    names

(* Hygiene at run time: every key a live system's snapshot carries
   starts with a registered namespace and names no component twice, as
   a clock registered under "cache.state_clock" did
   ("cache.state_clock.state_clock.protects"). The system: a server, a
   session whose seven-slot pool must replace pages to read two
   five-page segments, and F4's node server, whose two-slot cache
   replaces a page too. *)
let test_snapshot_keys_hygienic () =
  Registry.with_fresh @@ fun () ->
  let db = Bess.Db.create_memory ~db_id:312 () in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"obj" ~size:32
      ~ref_offsets:[||]
  in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let segs = List.init 2 (fun _ -> Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:4 ()) in
  let oids =
    List.map (fun seg -> Bess.Session.oid_of s (Bess.Session.create_object s seg ty ~size:32)) segs
  in
  Bess.Session.commit s;
  let small = Bess.Db.session ~pool_slots:7 db in
  Bess.Session.begin_txn small;
  List.iter
    (fun oid ->
      let o = Bess.Session.by_oid small oid in
      ignore (Bess_vmem.Vmem.read_i64 (Bess.Session.mem small) (Bess.Session.obj_data small o)))
    oids;
  Bess.Session.commit small;
  let data = (List.hd segs).Bess.Session.data_disk in
  let page i =
    { Bess_cache.Page_id.area = data.Bess_storage.Seg_addr.area;
      page = data.Bess_storage.Seg_addr.first_page + i }
  in
  let node =
    Bess.Node_server.create ~cache_slots:2 ~n_vframes:8 ~n_procs:2
      (Bess.Fetcher.direct ~client_id:7301 (Bess.Db.server db))
  in
  List.iter
    (fun (proc, i) -> ignore (Bess.Node_server.shm_access node ~proc (page i) ~write:false))
    [ (0, 0); (1, 1); (1, 2); (0, 2) ];
  let snap = Registry.snapshot () in
  let keys =
    List.map fst (Registry.counters snap)
    @ List.map fst (Registry.gauges snap)
    @ List.map fst (Registry.histograms snap)
  in
  List.iter
    (fun ns ->
      Alcotest.(check bool) (Printf.sprintf "a %s key is in the snapshot" ns) true
        (List.exists (String.starts_with ~prefix:(ns ^ ".")) keys))
    [ "cache"; "state_clock"; "two_level"; "session"; "vmem"; "lock"; "server" ];
  List.iter
    (fun key ->
      (* A label ("fault.checks{wal.force.eio}") is not part of the name. *)
      let name = match String.index_opt key '{' with Some i -> String.sub key 0 i | None -> key in
      let parts = String.split_on_char '.' name in
      Alcotest.(check bool)
        (Printf.sprintf "%S starts with a registered namespace" key)
        true
        (List.mem (List.hd parts) Registry.metric_namespaces);
      Alcotest.(check bool)
        (Printf.sprintf "%S names no component twice" key)
        true
        (List.length (List.sort_uniq String.compare parts) = List.length parts))
    keys

(* Hygiene: build artifacts must not be tracked. Skips when git (or the
   .git directory) is unavailable in the test environment. *)
let test_no_build_artifacts_tracked () =
  (* [:(top)] anchors the pathspec at the repo root: the test binary runs
     from inside the dune sandbox. *)
  let ic = Unix.open_process_in "git ls-files ':(top)_build' 2>/dev/null | head -1" in
  let line = try Some (input_line ic) with End_of_file -> None in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
      (match line with
      | Some f -> Alcotest.failf "_build artifacts are tracked by git (e.g. %s)" f
      | None -> ())
  | _ -> () (* git unavailable: nothing to check *)

let suite =
  [
    Alcotest.test_case "registry_snapshot_diff" `Quick test_registry_snapshot_diff;
    Alcotest.test_case "registry_replace_histograms" `Quick test_registry_replace_and_histograms;
    Alcotest.test_case "labeled_counters" `Quick test_labeled_counters;
    Alcotest.test_case "stats_observe" `Quick test_stats_observe;
    Alcotest.test_case "trace_bounded_eviction" `Quick test_trace_bounded_eviction;
    Alcotest.test_case "trace_wrap_exact_capacity" `Quick test_trace_wrap_exact_capacity;
    Alcotest.test_case "registry_with_fresh" `Quick test_registry_with_fresh;
    Alcotest.test_case "counter_handles_with_fresh" `Quick test_counter_handles_with_fresh;
    Alcotest.test_case "event_feeds_trace" `Quick test_event_feeds_trace;
    Alcotest.test_case "lock_grant_trace_detail" `Quick test_lock_grant_trace_detail;
    Alcotest.test_case "event_fire_allocates_nothing" `Quick test_event_fire_allocates_nothing;
    Alcotest.test_case "hook_order_preserved" `Quick test_hook_order_preserved;
    Alcotest.test_case "no_build_artifacts_tracked" `Quick test_no_build_artifacts_tracked;
    Alcotest.test_case "registry_gauges" `Quick test_registry_gauges;
    Alcotest.test_case "with_fresh_restores_all_tables" `Quick test_with_fresh_restores_all_tables;
    Alcotest.test_case "prom_exposition" `Quick test_prom_exposition;
    Alcotest.test_case "metric_names_hygienic" `Quick test_metric_names_hygienic;
    Alcotest.test_case "snapshot_keys_hygienic" `Quick test_snapshot_keys_hygienic;
  ]
