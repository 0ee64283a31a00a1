(* Exact counter deltas summed over the substrate instances a workload
   runs. The registry keeps only the newest instance of each namespace
   (a ring has four servers; a session's page pool is a cache too), so
   each workload names its own instances. *)

module Stats = Bess_util.Stats

type t = (string, int) Hashtbl.t

let take sources : t =
  let h = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun (k, v) -> Hashtbl.replace h k (v + Option.value ~default:0 (Hashtbl.find_opt h k)))
        (Stats.to_list s))
    sources;
  h

let get (t : t) k = Option.value ~default:0 (Hashtbl.find_opt t k)

let diff ~(before : t) ~(after : t) : t =
  let d = Hashtbl.create 64 in
  Hashtbl.iter (fun k v -> Hashtbl.replace d k (v - get before k)) after;
  d

(* The C-tagged per-layer metrics of a delta over the timed phase:
   per-transaction ratios divide by attempts, per-commit ones by
   commits. *)
let layer_metrics d ~commits ~attempts =
  let g = get d in
  let per_txn k = Common.ratio (g k) attempts and per_commit k = Common.ratio (g k) commits in
  [
    ("vmem.faults_per_txn", Common.ratio (g "vmem.faults.read" + g "vmem.faults.write") attempts);
    ("vmem.protect_calls_per_txn", per_txn "vmem.protect_calls");
    ("session.data_faults_per_txn", per_txn "session.data_faults");
    ("session.swizzles_per_txn", per_txn "session.swizzles");
    ("session.write_faults_per_txn", per_txn "session.write_faults");
    ("session.callbacks_dropped_per_txn", per_txn "session.callbacks_dropped");
    ("server.callbacks_per_commit", per_commit "server.callbacks_sent");
    ("server.segment_fetches_per_txn", per_txn "server.segment_fetches");
    ("cache.hit_frac", Common.ratio (g "cache.hits") (g "cache.hits" + g "cache.misses"));
    ("cache.evictions_per_commit", per_commit "cache.evictions");
    ("cache.dirty_evict_frac", Common.ratio (g "cache.evict_dirty") (g "cache.evictions"));
    ("wal.forces_per_commit", per_commit "log.forces");
    ("wal.log_bytes_per_commit", per_commit "log.bytes");
    ("lock.blocks_per_commit", per_commit "lock.blocks");
    ("lock.handoffs_per_commit", per_commit "lock.handoffs");
    ("lock.timeouts_per_attempt", per_txn "lock.timeouts");
    ("sched.events_per_commit", per_commit "sched.events");
    ("sched.late_event_frac", Common.ratio (g "sched.late_events") (g "sched.events"));
    ("net.messages_per_commit", per_commit "net.messages");
    ("net.bytes_per_commit", per_commit "net.bytes");
    ("twopc.decisions_logged_per_commit", per_commit "2pc.decisions_logged");
  ]

(* Bytes made durable — log forces plus page writebacks — per byte the
   transactions changed. *)
let write_amp d =
  Common.ratio (get d "log.forced_bytes" + get d "store.page_flush_bytes") (get d "store.logical_bytes")
