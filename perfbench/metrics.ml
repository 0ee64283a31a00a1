(* The benchmark's metric table: every metric's name, unit and clock.
   BENCHMARK.json lists the same names in the same order; the tests keep
   the two in step.

   Clocks: "cal" is real time calibrated to a nominal CPU speed (Calib);
   "sim" is the simulated clock the substrates bill their modeled costs
   to, deterministic for a seed; "exact" is a count or a ratio of counts,
   deterministic too. Among the per-layer metrics these are the tags T
   (cal), S (sim) and C (exact). *)

type spec = { name : string; unit : string; clock : string }

let m name unit clock = { name; unit; clock }

let end_to_end =
  [
    m "setup_s" "s" "cal";
    m "commits_per_s" "1/s" "cal";
    m "txn_p50_us" "us" "cal";
    m "txn_p99_us" "us" "cal";
    m "sim_commits_per_s" "1/s" "sim";
    m "sim_commit_p50_ms" "ms" "sim";
    m "sim_commit_p99_ms" "ms" "sim";
    m "recovery_s" "s" "cal";
    m "write_amp" "x" "exact";
    m "heap_peak_mb" "MB" "exact";
  ]

let per_layer =
  [
    m "vmem.read_ns" "ns" "cal";
    m "vmem.faults_per_txn" "1/txn" "exact";
    m "vmem.protect_calls_per_txn" "1/txn" "exact";
    m "session.traverse_ns_per_hop" "ns" "cal";
    m "session.fault_us" "us" "cal";
    m "session.update_us" "us" "cal";
    m "session.commit_us" "us" "cal";
    m "session.data_faults_per_txn" "1/txn" "exact";
    m "session.swizzles_per_txn" "1/txn" "exact";
    m "session.write_faults_per_txn" "1/txn" "exact";
    m "session.callbacks_dropped_per_txn" "1/txn" "exact";
    m "server.callbacks_per_commit" "1/commit" "exact";
    m "server.segment_fetches_per_txn" "1/txn" "exact";
    m "cache.hit_frac" "frac" "exact";
    m "cache.evictions_per_commit" "1/commit" "exact";
    m "cache.dirty_evict_frac" "frac" "exact";
    m "store.read_page_hit_ns" "ns" "cal";
    m "store.read_page_miss_ns" "ns" "cal";
    m "wal.forces_per_commit" "1/commit" "exact";
    m "wal.log_bytes_per_commit" "B/commit" "exact";
    m "wal.append_ns" "ns" "cal";
    m "wal.redo_records" "count" "exact";
    m "wal.redo_us_per_record" "us" "cal";
    m "lock.acquire_release_ns" "ns" "cal";
    m "lock.blocks_per_commit" "1/commit" "exact";
    m "lock.handoffs_per_commit" "1/commit" "exact";
    m "lock.timeouts_per_attempt" "1/attempt" "exact";
    m "sched.events_per_commit" "1/commit" "exact";
    m "sched.late_event_frac" "frac" "exact";
    m "sched.wall_ns_per_event" "ns" "cal";
    m "net.messages_per_commit" "1/commit" "exact";
    m "net.bytes_per_commit" "B/commit" "exact";
    m "net.call_ns" "ns" "cal";
    m "shard.txn_local_us" "us" "cal";
    m "shard.txn_cross_us" "us" "cal";
    m "shard.fingerprint_crc_s" "s" "cal";
    m "twopc.cross_commit_frac" "frac" "exact";
    m "twopc.decisions_logged_per_commit" "1/commit" "exact";
    m "blame.lock_frac" "frac" "sim";
    m "blame.wal_frac" "frac" "sim";
    m "blame.net_frac" "frac" "sim";
    m "blame.backoff_frac" "frac" "sim";
    m "blame.server_frac" "frac" "sim";
    m "blame.sched_frac" "frac" "sim";
    m "blame.2pc_frac" "frac" "sim";
    m "blame.other_frac" "frac" "sim";
    m "obs.trace_overhead_frac" "frac" "cal";
    m "gc.minor_words_per_commit" "words/commit" "exact";
    m "gc.major_collections" "count" "exact";
  ]

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let valid_unit u =
  let n = String.length u in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       u

let value values name = Option.value ~default:0.0 (List.assoc_opt name values)

(* Specs with no value, and values no spec declares (a typo, not a
   bypassed layer). *)
let missing specs values =
  List.filter_map (fun s -> if List.mem_assoc s.name values then None else Some s.name) specs

let unknown specs values =
  List.filter_map
    (fun (n, _) -> if List.exists (fun s -> s.name = n) specs then None else Some n)
    values

(* Every digit, and never a non-number. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let js = Bess_obs.Registry.json_string

(* The result object: the last line of standard output. *)
let result_line ~attempted ~failed specs values =
  let field s =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (js s.name) (number (value values s.name))
      (js s.unit)
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed
    (String.concat ", " (List.map field specs))

(* The traced run's artifact: every per-layer number with its clock. *)
let layers_json ~workload ~seed ~attempted ~failed values =
  let field s =
    Printf.sprintf "    %s: {\"value\": %s, \"unit\": %s, \"clock\": %s}" (js s.name)
      (number (value values s.name))
      (js s.unit) (js s.clock)
  in
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"attempted\": %d, \"failed\": %d,\n  \"per_layer\": {\n%s\n  }\n}\n"
    (js workload) seed attempted failed
    (String.concat ",\n" (List.map field per_layer))
