(* The simulated transport and fully remote sessions (node 1 of
   Figure 2): message/byte accounting, RPC behaviour, end-to-end object
   work over the wire, callbacks over the wire. *)

module Net = Bess_net.Net
module Vmem = Bess_vmem.Vmem

let test_net_accounting () =
  let net =
    Net.create ~per_message_ns:100 ~per_byte_ns:1
      ~req_cost:(fun s -> String.length s)
      ~resp_cost:(fun s -> String.length s)
      ()
  in
  Net.register net ~id:1 (fun ~src:_ req -> String.uppercase_ascii req);
  let t0 = Bess_obs.Span.now_ns () in
  let resp = Net.call net ~src:9 ~dst:1 "ping" in
  Alcotest.(check string) "rpc works" "PING" resp;
  Alcotest.(check int) "two messages" 2 (Net.messages net);
  Alcotest.(check int) "bytes both ways" 8 (Net.bytes net);
  Alcotest.(check int) "clock advanced" (200 + 8) (Bess_obs.Span.now_ns () - t0)

let test_net_unknown_endpoint () =
  let net = Net.create ~per_message_ns:100 ~per_byte_ns:1 ~req_cost:String.length
      ~resp_cost:String.length ()
  in
  let missing = try ignore (Net.call net ~src:1 ~dst:42 "xyz"); false with Net.No_such_endpoint 42 -> true in
  Alcotest.(check bool) "unknown endpoint raises" true missing;
  (* The attempt still crossed the wire: accounted before the bounce. *)
  Alcotest.(check int) "request message accounted" 1 (Net.messages net);
  Alcotest.(check int) "request bytes accounted" 3 (Net.bytes net);
  Alcotest.(check int) "dead letter counted" 1
    (Bess_util.Stats.get (Net.stats net) "net.dead_letters")

let fresh_remote_setup () =
  let db = Bess.Db.create_memory ~db_id:60 () in
  let net = Bess.Remote.network () in
  Bess.Remote.serve net (Bess.Db.server db);
  (db, net)

let test_remote_session_end_to_end () =
  let db, net = fresh_remote_setup () in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"r" ~size:16
      ~ref_offsets:[| 0 |]
  in
  let s = Bess.Remote.session net ~client_id:1001 db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let a = Bess.Session.create_object s seg ty ~size:16 in
  let b = Bess.Session.create_object s seg ty ~size:16 in
  Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s a) (Some b);
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s b + 8) 2024;
  Bess.Session.set_root s ~name:"ra" a;
  Bess.Session.commit s;
  Alcotest.(check bool) "traffic crossed the wire" true (Net.messages net > 0);
  (* A direct session sees the remotely committed graph. *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let a2 = Option.get (Bess.Session.root s2 "ra") in
  let b2 = Option.get (Bess.Session.read_ref s2 ~data_addr:(Bess.Session.obj_data s2 a2)) in
  Alcotest.(check int) "payload across the wire" 2024
    (Vmem.read_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 b2 + 8));
  Bess.Session.commit s2

let test_remote_callback_over_wire () =
  let db, net = fresh_remote_setup () in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"c" ~size:16
      ~ref_offsets:[||]
  in
  (* Remote client caches the object... *)
  let s1 = Bess.Remote.session net ~client_id:1001 db in
  Bess.Session.begin_txn s1;
  let seg = Bess.Session.create_segment s1 ~slotted_pages:1 ~data_pages:1 () in
  let o = Bess.Session.create_object s1 seg ty ~size:16 in
  Vmem.write_i64 (Bess.Session.mem s1) (Bess.Session.obj_data s1 o) 1;
  Bess.Session.set_root s1 ~name:"c" o;
  Bess.Session.commit s1;
  (* ...and a direct client's write calls it back across the network. *)
  let s2 = Bess.Db.session db in
  Bess.Session.begin_txn s2;
  let o2 = Option.get (Bess.Session.root s2 "c") in
  Vmem.write_i64 (Bess.Session.mem s2) (Bess.Session.obj_data s2 o2) 2;
  Bess.Session.commit s2;
  Alcotest.(check bool) "remote client dropped its copy" true
    (Bess_util.Stats.get (Bess.Session.stats s1) "session.callbacks_dropped" > 0);
  Bess.Session.begin_txn s1;
  let o1 = Option.get (Bess.Session.root s1 "c") in
  Alcotest.(check int) "remote client refetches fresh value" 2
    (Vmem.read_i64 (Bess.Session.mem s1) (Bess.Session.obj_data s1 o1));
  Bess.Session.commit s1

let test_remote_traffic_shape () =
  let db, net = fresh_remote_setup () in
  let ty =
    Bess.Type_desc.register (Bess.Catalog.types (Bess.Db.catalog db)) ~name:"t" ~size:16
      ~ref_offsets:[||]
  in
  let s = Bess.Remote.session net ~client_id:1001 db in
  Bess.Session.begin_txn s;
  let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
  let o = Bess.Session.create_object s seg ty ~size:16 in
  Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o) 9;
  Bess.Session.set_root s ~name:"t" o;
  Bess.Session.commit s;
  let after_commit = Net.messages net in
  (* Re-reading cached data costs nothing on the wire. *)
  Bess.Session.begin_txn s;
  ignore (Vmem.read_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o));
  Bess.Session.commit s;
  (* Only the begin+commit round trips (no data refetch). *)
  let delta = Net.messages net - after_commit in
  Alcotest.(check bool) "cached reread is cheap" true (delta <= 4)

(* Every client of a server speaks Fetcher. No module but the transport
   builds a request, except Twopc's prepare, decide and decision query,
   whose rids derive from (gid, participant) so a re-drive stays
   idempotent; and the node server calls no server operation (it names
   only the update record). *)
let test_one_client_protocol () =
  let requests =
    {|Remote\.\(Begin\|Lock\|Fetch_segment\|Fetch_page\|Commit\|Commit_begin\|Await_commit\||}
    ^ {|Abort\|Prepare\|Decide\|Query_decision\|Alloc\|Free\|Callback\)\b|}
  in
  let sources = Lib_sources.files Lib_sources.root in
  let named base = List.filter (fun p -> Filename.basename p = base) sources in
  Alcotest.(check (list string)) "requests built outside the transport and Twopc" []
    (Lib_sources.matches
       ~paths:(List.filter (fun p -> Filename.basename p <> "twopc.ml") sources)
       requests);
  Alcotest.(check (list string)) "Twopc's own requests"
    [ "Remote.Decide"; "Remote.Prepare"; "Remote.Query_decision" ]
    (Lib_sources.matches ~paths:(named "twopc.ml") requests);
  Alcotest.(check (list string)) "what the node server names of Server"
    [ "Server.page"; "Server.update" ]
    (Lib_sources.matches ~paths:(named "node_server.ml") {|Server\.[a-z_]+|})

(* The server remembers the answers of the last [dedup_window] keyed
   requests: a redelivery inside the window replays its answer, and one
   older than the window runs again. *)
let test_dedup_window_ages_out () =
  let db = Bess.Db.create_memory ~db_id:61 () in
  let net = Bess.Remote.network () in
  Bess.Remote.serve net (Bess.Db.server db);
  let begin_txn rid =
    match Bess.Remote.call net ~src:7 ~dst:61 (Bess.Remote.Begin { rid }) with
    | Bess.Remote.R_txn txn -> txn
    | _ -> Alcotest.fail "Begin answered something else"
  in
  let txns = Array.init (Bess.Remote.dedup_window + 1) (fun i -> begin_txn (i + 1)) in
  Alcotest.(check int) "the oldest remembered request replays" txns.(1) (begin_txn 2);
  Alcotest.(check bool) "a request past the window runs again" true (begin_txn 1 <> txns.(0));
  Alcotest.(check int) "which ages out the oldest" (txns.(Bess.Remote.dedup_window) + 2) (begin_txn 2)

(* A rid of any size is its own dedup key, as the 2PC coordinator needs
   (its rids jump by 2^27 at each restart): a rid past 2^32 or 2^42
   must neither replay the answer of the rid it would alias if truncated
   to that width nor be replayed in its place. A negative rid is
   refused before the handler runs. *)
let test_wide_request_ids_keep_their_own_keys () =
  let db = Bess.Db.create_memory ~db_id:62 () in
  let net = Bess.Remote.network () in
  Bess.Remote.serve net (Bess.Db.server db);
  let begin_txn rid =
    match Bess.Remote.call net ~src:7 ~dst:62 (Bess.Remote.Begin { rid }) with
    | Bess.Remote.R_txn txn -> txn
    | _ -> Alcotest.fail "Begin answered something else"
  in
  let replays () =
    Bess_util.Stats.get (Bess.Server.stats (Bess.Db.server db)) "server.dup_replays"
  in
  let rids = [ 5; (1 lsl 32) + 5; (1 lsl 42) + 5; max_int ] in
  let txns = List.map begin_txn rids in
  Alcotest.(check int) "each rid began its own transaction" (List.length rids)
    (List.length (List.sort_uniq compare txns));
  Alcotest.(check int) "nothing replayed" 0 (replays ());
  List.iter2
    (fun rid txn ->
      Alcotest.(check int) (Printf.sprintf "rid %d replays its own answer" rid) txn (begin_txn rid))
    (List.rev rids) (List.rev txns);
  Alcotest.(check int) "one replay each" (List.length rids) (replays ());
  Alcotest.check_raises "rid -5" (Invalid_argument "Remote.serve: negative request id") (fun () ->
      ignore (begin_txn (-5)));
  Alcotest.(check int) "no transaction begun" (List.fold_left max 0 txns + 1) (begin_txn 6)

(* A keyed round trip (Begin, then Abort) through [Net.call] and the
   served handler, with the dedup window already full, so every request
   also ages an old key out. The key is packed into an int, so neither
   the lookup nor the ring allocates; what is left is the requests and
   answers themselves and the server's transaction state. Minor words
   are deterministic, so the bound is tight: 167 words measured, where
   a tuple key, a hash bucket and a boxed ring entry per request made
   201. *)
let test_keyed_request_allocation () =
  let max_words = 170.0 in
  let db = Bess.Db.create_memory ~db_id:63 () in
  let net = Bess.Remote.network () in
  Bess.Remote.serve net (Bess.Db.server db);
  let rid = ref 0 in
  let round_trip () =
    incr rid;
    let txn =
      match Bess_net.Net.call net ~src:7 ~dst:63 (Bess.Remote.Begin { rid = !rid }) with
      | Bess.Remote.R_txn txn -> txn
      | _ -> Alcotest.fail "Begin answered something else"
    in
    incr rid;
    match Bess_net.Net.call net ~src:7 ~dst:63 (Bess.Remote.Abort { rid = !rid; txn }) with
    | Bess.Remote.R_ok -> ()
    | _ -> Alcotest.fail "Abort answered something else"
  in
  for _ = 1 to Bess.Remote.dedup_window do
    round_trip ()
  done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    round_trip ()
  done;
  let per_trip = (Gc.minor_words () -. before) /. float_of_int n in
  if per_trip > max_words then
    Alcotest.failf "%.1f minor words per keyed round trip (bound %.0f)" per_trip max_words

let suite =
  [
    Alcotest.test_case "net_accounting" `Quick test_net_accounting;
    Alcotest.test_case "net_unknown_endpoint" `Quick test_net_unknown_endpoint;
    Alcotest.test_case "remote_end_to_end" `Quick test_remote_session_end_to_end;
    Alcotest.test_case "remote_callback" `Quick test_remote_callback_over_wire;
    Alcotest.test_case "dedup_window_ages_out" `Quick test_dedup_window_ages_out;
    Alcotest.test_case "remote_traffic_shape" `Quick test_remote_traffic_shape;
    Alcotest.test_case "one_client_protocol" `Quick test_one_client_protocol;
    Alcotest.test_case "wide_request_ids_keep_their_own_keys" `Quick
      test_wide_request_ids_keep_their_own_keys;
    Alcotest.test_case "keyed_request_allocation" `Quick test_keyed_request_allocation;
  ]
