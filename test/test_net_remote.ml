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

let suite =
  [
    Alcotest.test_case "net_accounting" `Quick test_net_accounting;
    Alcotest.test_case "net_unknown_endpoint" `Quick test_net_unknown_endpoint;
    Alcotest.test_case "remote_end_to_end" `Quick test_remote_session_end_to_end;
    Alcotest.test_case "remote_callback" `Quick test_remote_callback_over_wire;
    Alcotest.test_case "remote_traffic_shape" `Quick test_remote_traffic_shape;
  ]
