(* The temporal half of the observability plane: windowed Series
   sampling on the simulated clock, the JSON reader, and the black-box
   flight recorder's dump -> load -> replay round trip. *)

module Registry = Bess_obs.Registry
module Series = Bess_obs.Series
module Span = Bess_obs.Span
module Flightrec = Bess_obs.Flightrec
module Json = Bess_obs.Json
module Stats = Bess_util.Stats
module Fault = Bess_fault.Fault

let with_series series f =
  Series.install (Some series);
  Fun.protect ~finally:(fun () -> Series.install None) f

let test_windowed_sampling () =
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Registry.register_stats "wal" st;
  let g = ref 2 in
  Registry.register_gauge "wal" "pending" (fun () -> !g);
  Stats.add st "forces" 10;
  let series = Series.create ~window_ns:1000 () in
  with_series series (fun () ->
      Stats.incr st "forces";
      Span.advance_ns 1000;
      (* window 0 closes: delta 1 *)
      Stats.add st "forces" 3;
      g := 7;
      Span.advance_ns 400;
      Span.advance_ns 600;
      (* window 1 closes: delta 3 *)
      Span.advance_ns 1000 (* window 2 closes: untouched, delta 0 *));
  match Series.to_list series with
  | [ w0; w1; w2 ] ->
      Alcotest.(check int) "indices" 0 w0.Series.w_index;
      Alcotest.(check int) "w1 index" 1 w1.Series.w_index;
      Alcotest.(check (option int)) "w0 delta" (Some 1) (Series.sample_delta w0 "wal.forces");
      Alcotest.(check (option int)) "w1 delta" (Some 3) (Series.sample_delta w1 "wal.forces");
      Alcotest.(check (option int))
        "quiet window keeps the zero (untouched /= unregistered)" (Some 0)
        (Series.sample_delta w2 "wal.forces");
      Alcotest.(check (option int)) "gauge at w1 end" (Some 7) (Series.sample_gauge w1 "wal.pending");
      Alcotest.(check int) "w1 spans its true width" 1000
        (w1.Series.w_end_ns - w1.Series.w_start_ns);
      (* 3 counts over 1000 simulated ns = 3e6/s. *)
      (match Series.sample_rate w1 "wal.forces" with
      | Some r -> Alcotest.(check bool) "rate over true width" true (abs_float (r -. 3e6) < 1.0)
      | None -> Alcotest.fail "rate missing")
  | l -> Alcotest.fail (Printf.sprintf "expected 3 windows, got %d" (List.length l))

let test_large_jump_one_window () =
  (* One big clock jump closes ONE window spanning the jump — no run of
     fabricated empty windows — and the rate divides by the real width. *)
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Registry.register_stats "wal" st;
  let series = Series.create ~window_ns:1000 () in
  with_series series (fun () ->
      Stats.add st "forces" 4;
      Span.advance_ns 8000);
  match Series.to_list series with
  | [ w ] ->
      Alcotest.(check int) "true width recorded" 8000 (w.Series.w_end_ns - w.Series.w_start_ns);
      (match Series.sample_rate w "wal.forces" with
      | Some r -> Alcotest.(check bool) "rate uses real width" true (abs_float (r -. 5e5) < 1.0)
      | None -> Alcotest.fail "rate missing")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 window, got %d" (List.length l))

let test_quiet_window_between_active () =
  (* A quiet window BETWEEN active ones must still appear, zeros kept —
     the gap in a burst pattern is data, not absence of it. *)
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Registry.register_stats "wal" st;
  let series = Series.create ~window_ns:1000 () in
  with_series series (fun () ->
      Stats.incr st "forces";
      Span.advance_ns 1000;
      Span.advance_ns 1000 (* nothing moved in here *);
      Stats.add st "forces" 2;
      Span.advance_ns 1000);
  match Series.to_list series with
  | [ w0; w1; w2 ] ->
      Alcotest.(check (option int)) "burst before the gap" (Some 1)
        (Series.sample_delta w0 "wal.forces");
      Alcotest.(check (option int)) "quiet middle window records zero" (Some 0)
        (Series.sample_delta w1 "wal.forces");
      Alcotest.(check int) "quiet window has real width" 1000
        (w1.Series.w_end_ns - w1.Series.w_start_ns);
      Alcotest.(check (option int)) "burst after the gap" (Some 2)
        (Series.sample_delta w2 "wal.forces")
  | l -> Alcotest.fail (Printf.sprintf "expected 3 windows, got %d" (List.length l))

let test_uninstall_reinstall_midrun () =
  (* Uninstalling mid-run stops sampling; reinstalling rebases both the
     window clock and the counter baseline, so activity from the dark
     period neither fabricates windows nor leaks into the next delta. *)
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Registry.register_stats "wal" st;
  let series = Series.create ~window_ns:1000 () in
  Series.install (Some series);
  Fun.protect ~finally:(fun () -> Series.install None) (fun () ->
      Stats.incr st "forces";
      Span.advance_ns 1000;
      Series.install None;
      Stats.add st "forces" 5;
      Span.advance_ns 10_000 (* unobserved: no series installed *);
      Alcotest.(check int) "dark period recorded nothing" 1 (Series.windows series);
      Series.install (Some series);
      Stats.add st "forces" 2;
      Span.advance_ns 1000);
  match Series.to_list series with
  | [ w0; w1 ] ->
      Alcotest.(check (option int)) "pre-gap delta" (Some 1) (Series.sample_delta w0 "wal.forces");
      Alcotest.(check int) "window numbering continues" 1 w1.Series.w_index;
      Alcotest.(check (option int)) "dark-period counts rebased away, not replayed" (Some 2)
        (Series.sample_delta w1 "wal.forces");
      Alcotest.(check int) "reinstalled window spans only its own width" 1000
        (w1.Series.w_end_ns - w1.Series.w_start_ns)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 windows, got %d" (List.length l))

let test_gauge_starts_raising () =
  (* A gauge whose substrate dies after registration (closure starts
     raising) silently drops out of later windows instead of killing the
     sampler. *)
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Registry.register_stats "wal" st;
  let alive = ref true in
  Registry.register_gauge "wal" "pending" (fun () ->
      if !alive then 9 else failwith "substrate gone");
  let series = Series.create ~window_ns:1000 () in
  with_series series (fun () ->
      Stats.incr st "forces";
      Span.advance_ns 1000;
      alive := false;
      Stats.incr st "forces";
      Span.advance_ns 1000);
  match Series.to_list series with
  | [ w0; w1 ] ->
      Alcotest.(check (option int)) "gauge sampled while healthy" (Some 9)
        (Series.sample_gauge w0 "wal.pending");
      Alcotest.(check (option int)) "raising gauge dropped from the window" None
        (Series.sample_gauge w1 "wal.pending");
      Alcotest.(check (option int)) "counters unaffected by the bad gauge" (Some 1)
        (Series.sample_delta w1 "wal.forces")
  | l -> Alcotest.fail (Printf.sprintf "expected 2 windows, got %d" (List.length l))

let test_ring_bound_and_flush () =
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Registry.register_stats "wal" st;
  let series = Series.create ~capacity:2 ~window_ns:1000 () in
  with_series series (fun () ->
      for i = 1 to 5 do
        Stats.add st "forces" i;
        Span.advance_ns 1000
      done;
      (* A partial window: only flush records it. *)
      Stats.incr st "forces";
      Span.advance_ns 1;
      Alcotest.(check int) "partial window still open" 5
        (Series.windows series + Series.dropped series);
      Series.flush series);
  Alcotest.(check int) "ring bounded" 2 (Series.windows series);
  Alcotest.(check int) "evictions counted" 4 (Series.dropped series);
  match Series.last series with
  | Some w ->
      Alcotest.(check (option int)) "flushed tail carries the delta" (Some 1)
        (Series.sample_delta w "wal.forces");
      Alcotest.(check int) "flushed window has its real (short) width" 1
        (w.Series.w_end_ns - w.Series.w_start_ns)
  | None -> Alcotest.fail "no last window"

let test_uninstalled_is_inert () =
  Alcotest.(check bool) "nothing installed" true (Series.installed () = None);
  Registry.with_fresh @@ fun () ->
  let series = Series.create ~window_ns:1000 () in
  (* Clock ticks without an installed series must not sample. *)
  Span.advance_ns 5000;
  Alcotest.(check int) "no windows recorded" 0 (Series.windows series);
  (* And json_of on an empty ring is still a valid document. *)
  match Json.parse (Json.to_string (Series.json_of series)) with
  | Ok j -> Alcotest.(check (list Alcotest.reject)) "no samples" [] (Json.get_list j "samples")
  | Error e -> Alcotest.failf "bad series json: %s" e

let test_series_json_roundtrip () =
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Registry.register_stats "wal" st;
  Registry.register_gauge "wal" "pending" (fun () -> 3);
  let series = Series.create ~window_ns:1000 () in
  with_series series (fun () ->
      Stats.add st "forces" 2;
      Span.advance_ns 1500);
  match Json.parse (Json.to_string (Series.json_of series)) with
  | Error e -> Alcotest.failf "unparseable series json: %s" e
  | Ok j -> (
      Alcotest.(check int) "window_ns round-trips" 1000 (Json.get_int j "window_ns");
      match Json.get_list j "samples" with
      | [ s ] ->
          let counters = Option.get (Json.member "counters" s) in
          Alcotest.(check int) "delta round-trips" 2 (Json.get_int counters "wal.forces");
          let gauges = Option.get (Json.member "gauges" s) in
          Alcotest.(check int) "gauge round-trips" 3 (Json.get_int gauges "wal.pending")
      | l -> Alcotest.failf "expected 1 sample, got %d" (List.length l))

(* ---- flight recorder ---- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_flightrec_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "bess_flightrec_test" in
  rm_rf dir;
  let saved = Span.save () in
  let coll = Span.create () in
  Span.install (Some coll);
  Flightrec.arm ~dir ();
  Fun.protect
    ~finally:(fun () ->
      Flightrec.disarm ();
      Span.restore saved;
      Fault.reset ();
      rm_rf dir)
    (fun () ->
      (* The fault plane is armed for the two spans only; its firings
         are instants in the collector, so they outlive the disarming. *)
      Bess_sched.Planes.with_installed
        ~faults:(11, [ ("wal.force.eio", Fault.Plan [ 2; 3 ]) ])
        (fun () ->
          Span.with_span ~kind:"wal.force" (fun () ->
              ignore (Fault.fire "wal.force.eio");
              Span.advance_ns 100;
              ignore (Fault.fire "wal.force.eio") (* ordinal 2: fires mid-span *);
              Span.advance_ns 50);
          Span.advance_ns 10;
          Span.with_span ~kind:"wal.force" (fun () ->
              (* ordinal 3: the same nanosecond the span opened at *)
              ignore (Fault.fire "wal.force.eio");
              Span.advance_ns 25));
      Alcotest.(check bool) "fault plane disarmed" false (Fault.armed ());
      Bess.Event.fire (Bess.Event.hooks_create ()) (Bess.Event.Txn_commit { txn = 7 });
      Alcotest.(check bool) "armed" true (Flightrec.armed ());
      let path =
        match Flightrec.dump ~reason:"chaos failure" () with
        | Some p -> p
        | None -> Alcotest.fail "dump returned no path while armed"
      in
      Alcotest.(check bool) "reason slugged into the file name" true
        (Filename.check_suffix path "-chaos-failure.json");
      match Flightrec.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok j ->
          Alcotest.(check string) "reason round-trips" "chaos failure"
            (Json.get_string j "reason");
          let items = Flightrec.replay j in
          let instants =
            List.filter_map
              (function
                | Flightrec.Instant_item { name; ts_ns; attrs } -> Some (name, ts_ns, attrs)
                | Flightrec.Span_item _ -> None)
              items
          in
          let faults =
            List.filter_map
              (fun (name, ts, attrs) ->
                if name = "fault:wal.force.eio" then
                  Some (int_of_string (List.assoc "ordinal" attrs), ts)
                else None)
              instants
          in
          Alcotest.(check (list int)) "the planned firings replay" [ 2; 3 ]
            (List.map fst faults);
          Alcotest.(check (option string)) "the event replays with its payload" (Some "7")
            (List.find_map
               (fun (name, _, attrs) ->
                 if name = "txn_commit" then List.assoc_opt "txn" attrs else None)
               instants);
          (* Firing 2 interleaves INSIDE the first span: after that span's
             start, before the second span's. Firing 3 shares the second
             span's start nanosecond and sorts after it. *)
          let span_starts =
            List.filter_map
              (function
                | Flightrec.Span_item { kind; start_ns; _ } -> Some (kind, start_ns)
                | Flightrec.Instant_item _ -> None)
              items
          in
          (match (span_starts, faults) with
          | [ (_, s0); (_, s1) ], [ (_, f2); (_, f3) ] ->
              Alcotest.(check int) "stamped 100ns into the first span" 100 (f2 - s0);
              Alcotest.(check bool) "fault before second span start" true (f2 < s1);
              Alcotest.(check int) "same nanosecond as the second span" s1 f3
          | _ -> Alcotest.failf "expected 2 spans + 2 faults, got %d items" (List.length items));
          let order =
            List.filter_map
              (function
                | Flightrec.Span_item { start_ns; _ } -> Some ("span", start_ns)
                | Flightrec.Instant_item { name; ts_ns; _ } ->
                    if name = "fault:wal.force.eio" then Some ("fault", ts_ns) else None)
              items
          in
          Alcotest.(check (list string)) "a tie sorts in record order"
            [ "span"; "fault"; "span"; "fault" ] (List.map fst order);
          (* Ordering: replay is sorted by timestamp. *)
          let ts = List.map Flightrec.item_ts items in
          Alcotest.(check (list int)) "timeline sorted" (List.sort compare ts) ts)

let test_flightrec_disarmed_noop () =
  Alcotest.(check bool) "disarmed by default" false (Flightrec.armed ());
  Alcotest.(check (option string)) "dump is a no-op" None
    (Flightrec.dump ~reason:"nope" ())

(* ---- end to end: substrate gauges ---- *)

let test_substrate_gauges_end_to_end () =
  Registry.with_fresh (fun () ->
      let db = Bess.Db.create_memory ~db_id:77 () in
      let s = Bess.Db.session db in
      Bess.Session.begin_txn s;
      let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
      ignore seg;
      Bess.Session.commit s;
      let gauges = Registry.gauges (Registry.snapshot ()) in
      let expect name =
        Alcotest.(check bool)
          (Printf.sprintf "substrate gauge %S registered" name)
          true (List.mem_assoc name gauges)
      in
      List.iter expect
        [
          "cache.resident_pages"; "cache.dirty_pages"; "lock.table_size"; "lock.waiters";
          "wal.unflushed_bytes"; "wal.pending_tickets"; "wal.bytes_since_checkpoint";
          "vmem.mapped_pages"; "server.active_txns"; "session.cached_segments";
        ];
      Alcotest.(check bool) "committed pages resident in the cache" true
        (List.assoc "cache.resident_pages" gauges > 0);
      Alcotest.(check int) "no transaction in flight" 0
        (List.assoc "server.active_txns" gauges))

(* A server crash under an installed series: the restart empties the
   lock table in place, so the lock counters keep counting across it and
   no window delta goes negative. Each transaction X-locks one page and
   commits an 8-byte update to it, which forces the log and moves the
   clock past a window. *)
let test_crash_under_series () =
  Registry.with_fresh @@ fun () ->
  let db = Bess.Db.create_memory ~db_id:79 () in
  let server = Bess.Db.server db in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let data = (Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:4 ()).data_disk in
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  let page i =
    { Bess_cache.Page_id.area = data.Bess_storage.Seg_addr.area;
      page = data.Bess_storage.Seg_addr.first_page + i }
  in
  let lock_stats = Bess_lock.Lock_mgr.stats (Bess.Server.locks server) in
  let grants () = Stats.get lock_stats "lock.grants" in
  let txn_on i =
    let txn = Bess.Server.begin_txn server ~client:1 in
    let p = page i in
    Alcotest.(check bool) "granted" true
      (Bess.Server.lock server ~txn
         (Bess_lock.Lock_mgr.page_resource ~area:p.area ~page:p.page)
         Bess_lock.Lock_mode.X
      = `Granted);
    let update =
      { Bess.Server.page = p; offset = 0; before = Bytes.make 8 '\000'; after = Bytes.make 8 'x' }
    in
    Alcotest.(check bool) "committed" true
      (Bess.Server.commit_client server ~txn ~updates:[ update ] = `Committed)
  in
  let series = Series.create ~window_ns:10_000 () in
  let g0 = grants () in
  with_series series (fun () ->
      for i = 0 to 3 do
        txn_on i
      done;
      let before_crash = grants () in
      Bess.Server.crash server;
      ignore (Bess.Server.recover server);
      for i = 0 to 3 do
        txn_on i
      done;
      Alcotest.(check int) "lock.grants continue across the crash" (before_crash + 4) (grants ());
      Series.flush series);
  let windows = Series.to_list series in
  Alcotest.(check bool) "several windows" true (List.length windows > 2);
  List.iter
    (fun w ->
      List.iter
        (fun (k, v) ->
          if v < 0 then Alcotest.failf "window %d: %s delta %d" w.Series.w_index k v)
        w.Series.w_counters)
    windows;
  let sum =
    List.fold_left
      (fun acc w -> acc + Option.value ~default:0 (Series.sample_delta w "lock.grants"))
      0 windows
  in
  Alcotest.(check int) "the windows sum to the lock table's grants" (grants () - g0) sum

(* With a server and a session in one scope, the registry's [cache] is
   the server's page cache, registered by the store: the session, built
   after it, has a page pool of its own that counts differently. *)
let test_cache_is_the_server_cache () =
  Registry.with_fresh @@ fun () ->
  let db = Bess.Db.create_memory ~db_id:80 () in
  let cache = Bess.Store.cache (Bess.Server.store (Bess.Db.server db)) in
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  ignore (Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:4 ());
  Bess.Session.commit s;
  let snap = Registry.snapshot () in
  let loads = Stats.get (Bess_cache.Cache.stats cache) "cache.loads" in
  Alcotest.(check bool) "the pool counts differently" true
    (loads <> Stats.get (Bess_cache.Cache.stats (Bess.Session.pool s)) "cache.loads");
  Alcotest.(check (option int)) "cache.loads is the server cache's" (Some loads)
    (List.assoc_opt "cache.loads" (Registry.counters snap));
  Alcotest.(check (option int)) "cache.resident_pages is the server cache's"
    (Some (Bess_cache.Cache.n_resident cache))
    (List.assoc_opt "cache.resident_pages" (Registry.gauges snap))

let suite =
  [
    Alcotest.test_case "windowed_sampling" `Quick test_windowed_sampling;
    Alcotest.test_case "large_jump_one_window" `Quick test_large_jump_one_window;
    Alcotest.test_case "quiet_window_between_active" `Quick test_quiet_window_between_active;
    Alcotest.test_case "uninstall_reinstall_midrun" `Quick test_uninstall_reinstall_midrun;
    Alcotest.test_case "gauge_starts_raising" `Quick test_gauge_starts_raising;
    Alcotest.test_case "ring_bound_and_flush" `Quick test_ring_bound_and_flush;
    Alcotest.test_case "uninstalled_is_inert" `Quick test_uninstalled_is_inert;
    Alcotest.test_case "series_json_roundtrip" `Quick test_series_json_roundtrip;
    Alcotest.test_case "flightrec_roundtrip" `Quick test_flightrec_roundtrip;
    Alcotest.test_case "flightrec_disarmed_noop" `Quick test_flightrec_disarmed_noop;
    Alcotest.test_case "substrate_gauges_end_to_end" `Quick test_substrate_gauges_end_to_end;
    Alcotest.test_case "crash_under_series" `Quick test_crash_under_series;
    Alcotest.test_case "cache_is_the_server_cache" `Quick test_cache_is_the_server_cache;
  ]
