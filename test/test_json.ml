(* The JSON codec: the reader's grammar, the writer/reader round trip,
   and the exact bytes each artifact family renders for a small fixed
   input. *)

module Json = Bess_obs.Json
module Registry = Bess_obs.Registry
module Span = Bess_obs.Span
module Series = Bess_obs.Series
module Critpath = Bess_obs.Critpath
module Mrc = Bess_obs.Mrc
module Heat = Bess_obs.Heat
module Stats = Bess_util.Stats

(* ---- Reader ------------------------------------------------------------------ *)

(* Not JSON, yet each was accepted by a number scan that took any run of
   [0-9+-.eE] that float_of_string read, or a \u decoder that took
   int_of_string's digit separators. *)
let test_reader_rejects_non_json () =
  List.iter
    (fun input ->
      match Json.parse input with
      | Ok _ -> Alcotest.failf "accepted %S" input
      | Error _ -> ())
    [ "+1"; "01"; "-01"; "00"; ".5"; "-.5"; "1."; "1.e5"; "+.5"; "+1e3"; "[+1]"; {|{"a":01}|};
      {|"\u1_23"|} ]

let test_reader_numbers () =
  List.iter
    (fun (input, f) ->
      match Json.parse input with
      | Ok (Json.Num s as v) ->
          Alcotest.(check string) "lexeme kept" input s;
          Alcotest.(check (option (float 0.0))) input (Some f) (Json.to_float v)
      | _ -> Alcotest.failf "rejected %S" input)
    [ ("0", 0.0); ("-0", -0.0); ("1.5e-3", 0.0015); ("1E+2", 100.0); ("-12.25", -12.25);
      ("0.000", 0.0); ("4611686018427387903", 4611686018427387903.0) ];
  Alcotest.(check (option int)) "max_int exactly" (Some max_int)
    (Json.to_int (Json.parse_exn "4611686018427387903"));
  Alcotest.(check (option int)) "integral exponent" (Some 1000) (Json.to_int (Json.Num "1e3"));
  Alcotest.(check (option int)) "fraction is no int" None (Json.to_int (Json.Num "12.5"));
  Alcotest.(check string) "\\u escapes decode to UTF-8" "A\xc3\xa9"
    (Json.get_string (Json.parse_exn {|{"s":"A\u00e9"}|}) "s")

(* ---- Round trip -------------------------------------------------------------- *)

(* Any byte, with the ones the writer escapes drawn often. *)
let gen_string =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (3, char); (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\x1f'; '\x7f'; '\x80'; '\xff' ]) ])
      (int_bound 12))

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Json.Null; map (fun b -> Json.Bool b) bool;
                 map Json.int (oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0 ] ]);
                 map2 Json.fixed (int_bound 4) (float_range (-1e12) 1e12);
                 map (fun s -> Json.Str s) gen_string ]
           in
           if n <= 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 3))));
                 ( 1,
                   map (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair gen_string (self (n / 3)))) ) ]))

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* ---- Artifact bytes ---------------------------------------------------------- *)

(* A simulated-ns stamp as the Chrome trace's microseconds. *)
let us ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)

let test_snapshot_bytes () =
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Registry.register_stats "wal" st;
  Registry.register_gauge "wal" "pending" (fun () -> 3);
  Stats.add st "forces" 2;
  Stats.add st "bytes\"q" (-5);
  Stats.observe st "force_ns" 100;
  Stats.observe st "force_ns" 301;
  Alcotest.(check string) "snapshot"
    {|{"counters":{"wal.bytes\"q":-5,"wal.forces":2},"gauges":{"wal.pending":3},"histograms":{"wal.force_ns":{"count":2,"sum":401,"min":100,"max":301,"mean":200.500,"p50":127,"p90":301,"p99":301,"p999":301}}}|}
    (Json.to_string (Registry.json_of_snapshot (Registry.snapshot ())))

let test_chrome_bytes () =
  Registry.with_fresh @@ fun () ->
  let saved = Span.installed () in
  let c = Span.create () in
  Span.install (Some c);
  let t0 = Span.now_ns () in
  Span.with_span ~kind:"session.txn" ~attrs:[ ("txn", "7") ] (fun () ->
      Span.advance_ns 1500;
      Span.instant ~attrs:[ ("site", "wal \"force\"\n\001") ] "fault:wal.force";
      Span.with_span ~kind:"wal.force" (fun () -> Span.advance_ns 250));
  Span.install saved;
  Alcotest.(check string) "collector"
    (Printf.sprintf
       {|{"traceEvents":[{"name":"session.txn","cat":"bess","ph":"X","ts":%s,"dur":1.750,"pid":1,"tid":1,"args":{"id":"1","txn":"7"}},{"name":"fault:wal.force","cat":"bess","ph":"i","ts":%s,"s":"g","pid":1,"tid":0,"args":{"seq":"1","site":"wal \"force\"\n\u0001"}},{"name":"wal.force","cat":"bess","ph":"X","ts":%s,"dur":0.250,"pid":1,"tid":1,"args":{"id":"2","parent":"1"}}],"displayTimeUnit":"ns","extra":1}
|}
       (us t0) (us (t0 + 1500)) (us (t0 + 1500)))
    (Span.to_chrome_json ~members:[ ("extra", Json.int 1) ] (Some c));
  Alcotest.(check string) "no collector"
    {|{"traceEvents":[],"displayTimeUnit":"ns","reason":"x"}
|}
    (Span.to_chrome_json ~members:[ ("reason", Json.Str "x") ] None)

let test_series_bytes () =
  Registry.with_fresh @@ fun () ->
  let st = Stats.create () in
  Registry.register_stats "wal" st;
  Registry.register_gauge "wal" "pending" (fun () -> 4);
  let series = Series.create ~window_ns:1000 () in
  Series.install (Some series);
  let t0 = Span.now_ns () in
  Stats.add st "forces" 2;
  Stats.observe st "force_ns" 90;
  Span.advance_ns 1500;
  Series.install None;
  Alcotest.(check string) "series"
    (Printf.sprintf
       {|{"window_ns":1000,"dropped":0,"samples":[{"i":0,"start_ns":%d,"end_ns":%d,"counters":{"wal.forces":2},"gauges":{"wal.pending":4},"tails":{"wal.force_ns":{"count":1,"p50":127,"p95":127,"p99":127,"p999":127}}}]}|}
       t0 (t0 + 1500))
    (Json.to_string (Series.json_of series))

let test_slow_bytes () =
  Registry.with_fresh @@ fun () ->
  let saved = Span.installed () in
  let c = Span.create () in
  Span.install (Some c);
  let cp = Critpath.create () in
  Critpath.install (Some cp);
  let t0 = Span.now_ns () in
  Span.with_span ~kind:"sched.txn" ~attrs:[ ("client", "3") ] (fun () ->
      Span.advance_ns 10;
      Span.instant ~attrs:[ ("site", "wal.force") ] "fault:wal.force";
      Span.with_span ~kind:"wal.force" (fun () -> Span.advance_ns 30));
  Critpath.install None;
  Span.install saved;
  Alcotest.(check string) "slow txns"
    (Printf.sprintf
       {|[{"root":{"id":1,"kind":"sched.txn","start_ns":%d,"end_ns":%d,"attrs":{"client":"3"}},"total_ns":40,"blame":{"lock":0,"wal":30,"net":0,"backoff":0,"server":0,"sched":0,"2pc":0,"other":10},"spans":[{"id":2,"kind":"wal.force","start_ns":%d,"end_ns":%d,"parent":1,"attrs":{}}],"faults":[{"name":"fault:wal.force","ts_ns":%d,"attrs":{"site":"wal.force"}}]}]|}
       t0 (t0 + 40) (t0 + 10) (t0 + 40) (t0 + 10))
    (Json.to_string (Critpath.json_of_slow cp))

let test_mrc_bytes () =
  let m = Mrc.create ~rate_bits:0 () in
  List.iter (Mrc.access m) [ 1; 2; 1; 3; 2; 1 ];
  Alcotest.(check string) "mrc"
    {|{"rate_bits":0,"accesses":6,"sampled":6,"cold":3,"tracked_keys":3,"curve":[{"size":1,"hit_pct":0.00},{"size":2,"hit_pct":16.67},{"size":4,"hit_pct":50.00},{"size":8,"hit_pct":50.00}]}|}
    (Json.to_string (Mrc.json_of ~max_size:8 m))

let test_heat_bytes () =
  let h = Heat.create ~window_ns:1000 () in
  List.iter (Heat.access h) [ 5; 9; 5 ];
  Span.advance_ns 40;
  Heat.access h 9;
  Heat.access h 9;
  Alcotest.(check string) "heat"
    {|{"window_ns":1000,"accesses":5,"tracked_keys":2,"decays":0,"top":[{"key":9,"freq":3,"last_ns":40},{"key":5,"freq":2,"last_ns":0}]}|}
    (Json.to_string (Heat.json_of ~k:2 h));
  Alcotest.(check string) "heat, labeled"
    {|{"window_ns":1000,"accesses":5,"tracked_keys":2,"decays":0,"top":[{"key":9,"page":"1:9","freq":3,"last_ns":40},{"key":5,"page":"1:5","freq":2,"last_ns":0}]}|}
    (Json.to_string (Heat.json_of ~key_label:(Printf.sprintf "1:%d") h))

let suite =
  [
    Alcotest.test_case "reader_rejects_non_json" `Quick test_reader_rejects_non_json;
    Alcotest.test_case "reader_numbers" `Quick test_reader_numbers;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "snapshot_bytes" `Quick test_snapshot_bytes;
    Alcotest.test_case "chrome_bytes" `Quick test_chrome_bytes;
    Alcotest.test_case "series_bytes" `Quick test_series_bytes;
    Alcotest.test_case "slow_txns_bytes" `Quick test_slow_bytes;
    Alcotest.test_case "mrc_bytes" `Quick test_mrc_bytes;
    Alcotest.test_case "heat_bytes" `Quick test_heat_bytes;
  ]
