(* Critical-path attribution: hand-built span trees (overlapping
   children, parked lock-wait roots, retries with backoff, unclosed
   anomalies) must decompose into phases that sum to the measured root
   latency exactly; the slow-transaction reservoir must admit and evict
   in duration order; per-window tails must breach a budget
   deterministically — same seed, same blame fingerprint. *)

module Span = Bess_obs.Span
module Registry = Bess_obs.Registry
module Series = Bess_obs.Series
module Critpath = Bess_obs.Critpath
module Stats = Bess_util.Stats
module Driver = Bess_sched.Driver
module Sched = Bess_sched.Sched

(* Run [f] with a private collector and a fresh critpath sink wired to
   the global close hook, restoring all ambient state afterwards. *)
let with_critpath ?top_k f =
  Registry.with_fresh (fun () ->
      let saved = Span.installed () in
      let c = Span.create () in
      Span.install (Some c);
      let cp = Critpath.create ?top_k () in
      Critpath.install (Some cp);
      Fun.protect
        ~finally:(fun () ->
          Critpath.install None;
          Span.install saved)
        (fun () -> f c cp))

let find_kind c kind = List.filter (fun s -> s.Span.kind = kind) (Span.to_list c)
let the_kind c kind = List.hd (find_kind c kind)

let blame_of cp name =
  Option.value ~default:(-1) (List.assoc_opt name (Critpath.blame_totals cp))

let check_conserved cp =
  let sum = List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Critpath.blame_totals cp) in
  Alcotest.(check int) "phases sum to total exactly" (Critpath.total_ns cp) sum;
  Alcotest.(check int) "no attribution gap counted" 0
    (Stats.get (Critpath.stats cp) "critpath.attribution_gap")

(* ---- Decomposition on hand-built trees ------------------------------------ *)

let test_nested_tree () =
  with_critpath (fun c cp ->
      let root = Span.enter ~kind:"sched.txn" () in
      Span.advance_ns 10;
      Span.with_span ~kind:"wal.force" (fun () -> Span.advance_ns 30);
      Span.advance_ns 5;
      Span.with_span ~kind:"lock.acquire" (fun () -> Span.advance_ns 20);
      Span.finish root;
      Alcotest.(check int) "one txn attributed" 1 (Critpath.txns cp);
      let wal = the_kind c "wal.force" and lock = the_kind c "lock.acquire" in
      let rt = the_kind c "sched.txn" in
      Alcotest.(check int) "wal blamed its duration" (Span.duration wal) (blame_of cp "wal");
      Alcotest.(check int) "lock blamed its duration" (Span.duration lock)
        (blame_of cp "lock");
      Alcotest.(check int) "rest is root self time"
        (Span.duration rt - Span.duration wal - Span.duration lock)
        (blame_of cp "other");
      Alcotest.(check int) "total is root duration" (Span.duration rt)
        (Critpath.total_ns cp);
      check_conserved cp)

let test_overlapping_children () =
  with_critpath (fun c cp ->
      (* Two siblings whose windows overlap: deepest-span-wins clips the
         later sibling to the uncovered suffix, so no nanosecond is
         counted twice. *)
      let root = Span.enter ~kind:"sched.txn" () in
      let h_wal = Span.start ~kind:"wal.force" () in
      Span.advance_ns 10;
      let h_net = Span.start ~kind:"net.rpc" () in
      Span.advance_ns 10;
      Span.finish h_wal;
      Span.advance_ns 10;
      Span.finish h_net;
      Span.advance_ns 5;
      Span.finish root;
      let wal = the_kind c "wal.force" and net = the_kind c "net.rpc" in
      Alcotest.(check int) "earlier sibling keeps its whole window" (Span.duration wal)
        (blame_of cp "wal");
      Alcotest.(check int) "later sibling clipped to the uncovered suffix"
        (net.Span.end_ns - wal.Span.end_ns)
        (blame_of cp "net");
      check_conserved cp)

let test_parked_lock_wait_relabels_backoff () =
  with_critpath (fun c cp ->
      (* A lock wait parked across calls (parentless root span sharing
         the txn attribute) overlaps the client's retry backoff: the
         backoff time was really lock wait and must be relabeled. *)
      let root = Span.enter ~kind:"sched.txn" () in
      Span.annotate "txn" "7";
      let wait = Span.start ~root:true ~attrs:[ ("txn", "7") ] ~kind:"lock.wait" () in
      Span.with_span ~attrs:[ ("retries", "0") ] ~kind:"client.backoff" (fun () ->
          Span.advance_ns 50);
      Span.finish wait;
      Span.advance_ns 10;
      Span.finish root;
      let backoff = the_kind c "client.backoff" in
      Alcotest.(check bool) "backoff relabeled as lock wait" true
        (blame_of cp "lock" >= Span.duration backoff);
      Alcotest.(check int) "no residual backoff blame" 0 (blame_of cp "backoff");
      (* The parked wait rides along in the slow capture. *)
      (match Critpath.slow cp with
      | [ st ] ->
          Alcotest.(check bool) "parked wait captured" true
            (List.exists (fun s -> s.Span.kind = "lock.wait") st.st_spans)
      | l -> Alcotest.failf "expected 1 slow txn, got %d" (List.length l));
      check_conserved cp)

let test_unmatched_backoff_stays_backoff () =
  with_critpath (fun _c cp ->
      (* Backoff with no parked lock wait anywhere near it keeps its own
         phase — relabeling requires evidence. *)
      let root = Span.enter ~kind:"sched.txn" () in
      Span.with_span ~attrs:[ ("retries", "0") ] ~kind:"client.backoff" (fun () ->
          Span.advance_ns 40);
      Span.finish root;
      Alcotest.(check bool) "backoff kept" true (blame_of cp "backoff" >= 40);
      Alcotest.(check int) "no lock blame invented" 0 (blame_of cp "lock");
      check_conserved cp)

let test_sched_lag_attr () =
  with_critpath (fun c cp ->
      (* The driver reports scheduler lag on the root; up to that much
         leading self time converts to Sched, clamped so the sum stays
         exact even when the reported lag exceeds the self time. *)
      let root = Span.enter ~kind:"sched.txn" () in
      Span.advance_ns 100;
      Span.finish ~attrs:[ ("sched_lag_ns", "30") ] root;
      Alcotest.(check int) "lag converted" 30 (blame_of cp "sched");
      check_conserved cp;
      let root2 = Span.enter ~kind:"sched.txn" () in
      Span.advance_ns 10;
      Span.finish ~attrs:[ ("sched_lag_ns", "1000000") ] root2;
      (* Second txn: lag clamped to its whole (self-time-only) duration,
         so sched grows by exactly that duration, not the reported lag. *)
      let rt2 = List.nth (find_kind c "sched.txn") 1 in
      Alcotest.(check int) "over-reported lag clamped" (Span.duration rt2 + 30)
        (blame_of cp "sched");
      check_conserved cp)

let test_unclosed_anomaly () =
  with_critpath (fun c cp ->
      let _root = Span.enter ~kind:"sched.txn" () in
      let _child = Span.start ~kind:"wal.force" () in
      Span.advance_ns 20;
      (* Trace ends with both still open: finish_all closes innermost
         first, marking each span unclosed; the root still attributes. *)
      Span.finish_all c;
      Alcotest.(check int) "root still attributed" 1 (Critpath.txns cp);
      Alcotest.(check int) "unclosed root counted" 1
        (Stats.get (Critpath.stats cp) "critpath.unclosed_roots");
      check_conserved cp)

let test_outcome_split () =
  with_critpath (fun _c cp ->
      let commit = Span.enter ~kind:"sched.txn" () in
      Span.advance_ns 10;
      Span.finish ~attrs:[ ("outcome", "commit") ] commit;
      let abort = Span.enter ~kind:"sched.txn" () in
      Span.advance_ns 10;
      Span.finish ~attrs:[ ("outcome", "abort") ] abort;
      let st = Critpath.stats cp in
      Alcotest.(check int) "both attributed" 2 (Critpath.txns cp);
      Alcotest.(check int) "outcomes labeled" 1
        (Stats.get_labeled st "critpath.outcome" ~label:"abort");
      (* commit_ns only sees committed transactions. *)
      match Stats.find_histogram st "critpath.commit_ns" with
      | Some h -> Alcotest.(check int) "commit histogram excludes aborts" 1
            (Bess_util.Histogram.count h)
      | None -> Alcotest.fail "commit_ns histogram missing")

(* ---- Slow-transaction reservoir ------------------------------------------- *)

let test_reservoir_order_and_eviction () =
  with_critpath ~top_k:2 (fun _c cp ->
      let txn ns =
        let h = Span.enter ~kind:"sched.txn" () in
        Span.advance_ns ns;
        Span.finish h
      in
      txn 100;
      txn 300;
      txn 200;
      (* Capacity 2: the 100ns txn must have been evicted, order is
         duration-descending. *)
      (match Critpath.slow cp with
      | [ a; b ] ->
          Alcotest.(check bool) "slowest first" true
            (a.st_blame.Critpath.b_total_ns > b.st_blame.Critpath.b_total_ns);
          Alcotest.(check bool) "slowest is ~300" true (a.st_blame.Critpath.b_total_ns >= 300)
      | l -> Alcotest.failf "expected 2 slow txns, got %d" (List.length l));
      Alcotest.(check int) "eviction counted" 1
        (Stats.get (Critpath.stats cp) "critpath.slow_evicted");
      (* A txn no slower than the current minimum is rejected. *)
      txn 1;
      Alcotest.(check int) "too-fast txn rejected" 1
        (Stats.get (Critpath.stats cp) "critpath.slow_rejected");
      (* JSON of the reservoir parses structurally. *)
      let j = Bess_obs.Json.to_string (Critpath.json_of_slow cp) in
      Alcotest.(check bool) "reservoir json is an array" true
        (String.length j >= 2 && j.[0] = '[' && j.[String.length j - 1] = ']'))

(* ---- Same-seed determinism over the real driver ---------------------------- *)

let next_db = ref 9700

let run_attributed () =
  Registry.with_fresh (fun () ->
      incr next_db;
      let db = Bess.Db.create_memory ~db_id:!next_db () in
      let server = Bess.Db.server db in
      Bess.Server.set_detection server `Timeout;
      let s = Bess.Db.session db in
      Bess.Session.begin_txn s;
      let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:16 () in
      Bess.Session.commit s;
      Bess.Session.drop_all_cached s;
      let d = seg.Bess.Session.data_disk in
      let pages =
        Array.init 16 (fun i ->
            { Bess_cache.Page_id.area = d.Bess_storage.Seg_addr.area;
              page = d.Bess_storage.Seg_addr.first_page + i })
      in
      let saved = Span.installed () in
      let c = Span.create () in
      Span.install (Some c);
      let cp = Critpath.create () in
      Critpath.install (Some cp);
      let series = Series.create ~window_ns:100_000 () in
      Series.install (Some series);
      let sched = Sched.create () in
      let cfg =
        { Driver.default with
          n_clients = 20;
          txns_per_client = 5;
          zipf_theta = 1.1;
          hot_fraction = 0.3;
          hot_pages = 2;
          seed = 1234;
        }
      in
      let r = Driver.run ~sched server ~pages cfg in
      Series.flush series;
      Series.install None;
      Critpath.install None;
      Span.install saved;
      Alcotest.(check bool) "some commits" true (r.Driver.r_commits > 0);
      (* Windows whose transaction p99 misses a tight 1000 ns budget. *)
      let breaches =
        List.length
          (List.filter
             (fun w ->
               match Series.sample_tail w "critpath.txn_ns" with
               | Some tl -> tl.Series.t_p99 >= 1000
               | None -> false)
             (Series.to_list series))
      in
      (Critpath.fingerprint cp, breaches))

let test_same_seed_same_blame () =
  let fp1, br1 = run_attributed () in
  let fp2, br2 = run_attributed () in
  Alcotest.(check string) "blame fingerprints identical" fp1 fp2;
  Alcotest.(check int) "breach counts identical" br1 br2;
  (* The tight budget must actually have fired: a count that is always
     zero proves nothing about determinism. *)
  Alcotest.(check bool) "budget exercised" true (br1 > 0)

let suite =
  [
    Alcotest.test_case "nested tree decomposition" `Quick test_nested_tree;
    Alcotest.test_case "overlapping children clipped" `Quick test_overlapping_children;
    Alcotest.test_case "parked lock wait relabels backoff" `Quick
      test_parked_lock_wait_relabels_backoff;
    Alcotest.test_case "unmatched backoff stays backoff" `Quick
      test_unmatched_backoff_stays_backoff;
    Alcotest.test_case "sched lag attribution" `Quick test_sched_lag_attr;
    Alcotest.test_case "unclosed root anomaly" `Quick test_unclosed_anomaly;
    Alcotest.test_case "outcome split" `Quick test_outcome_split;
    Alcotest.test_case "reservoir order and eviction" `Quick
      test_reservoir_order_and_eviction;
    Alcotest.test_case "same seed same blame" `Quick test_same_seed_same_blame;
  ]
