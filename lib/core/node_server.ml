(* The BeSS node server and the two client operation modes (section 4).

   A node server is "a BeSS server that does not own any storage areas":
   it keeps a shared cache on its node, fetches data from the owning
   servers, acquires locks on behalf of local applications, and answers
   callbacks. Local applications use it in one of two modes:

   - Copy on access: the application keeps a private buffer pool and asks
     the node server (inter-process communication, costed per message and
     per byte copied) for each segment it misses.

   - Shared memory: the application maps the shared cache directly. The
     shared mapping table (SMT) pins each cached page to one virtual
     frame index for every process; pointers are SVMA offsets; latches
     synchronise access; replacement runs the two-level clock.

   The node server exposes page-granular transactions: enough to run the
   operation-mode experiments (E2) and the Figure 3/4 scenarios, without
   duplicating the full object engine of {!Session} (which covers the
   direct and remote paths). *)

module Page_id = Bess_cache.Page_id
module Cache = Bess_cache.Cache
module Smt = Bess_cache.Smt
module Two_level = Bess_cache.Two_level
module Vmem = Bess_vmem.Vmem
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode

type proc = {
  proc_id : int;
  pvma : Vmem.t;
  pvma_base : int; (* base address of the PVMA frame window *)
}

type t = {
  id : int;
  upstream : Server.t; (* the owning server for all data this node touches *)
  cache : Cache.t; (* the shared cache (Figure 3) *)
  smt : Smt.t;
  mutable clock : Two_level.t;
  mutable procs : proc array;
  n_vframes : int;
  page_size : int;
  (* IPC cost model for copy-on-access requests (local socket, not LAN),
     charged to the simulated clock. *)
  local_msg_ns : int;
  local_byte_ns : int;
  mutable txn : int option; (* node-server-wide transaction at the upstream *)
  dirty : (Page_id.t, unit) Hashtbl.t;
  (* Dirty pages evicted before commit park here (their X locks are held,
     so this is just deferred shipping); consulted on refetch so the
     transaction keeps seeing its own writes. *)
  pending_writes : (Page_id.t, Bytes.t) Hashtbl.t;
  stats : Bess_util.Stats.t;
}

let create ?(cache_slots = 256) ?(n_vframes = 1024) ?(page_size = 4096)
    ?(local_msg_ns = 15_000) ?(local_byte_ns = 1) ~id upstream =
  let t =
    {
      id;
      upstream;
      cache = Cache.create ~nslots:cache_slots ~page_size;
      smt = Smt.create ~n_vframes;
      clock =
        Two_level.create ~n_procs:0 ~n_vframes ~n_slots:cache_slots
          ~protect:(fun ~proc:_ ~vframe:_ -> ())
          ~invalidate:(fun ~proc:_ ~vframe:_ -> ());
      procs = [||];
      n_vframes;
      page_size;
      local_msg_ns;
      local_byte_ns;
      txn = None;
      dirty = Hashtbl.create 32;
      pending_writes = Hashtbl.create 32;
      stats = Bess_util.Stats.create ();
    }
  in
  Cache.set_writeback t.cache (fun page bytes ->
      (* A dirty shared page evicted mid-transaction: park its image
         until commit ships it upstream. *)
      Hashtbl.replace t.pending_writes page (Bytes.copy bytes);
      Bess_util.Stats.incr t.stats "node.dirty_parked");
  t

let stats t = t.stats
let cache t = t.cache
let smt t = t.smt
let clock t = t.clock

let account_ipc t ~bytes =
  Bess_obs.Span.advance_ns (t.local_msg_ns + (bytes * t.local_byte_ns));
  Bess_util.Stats.incr t.stats "node.ipc_messages";
  Bess_util.Stats.add t.stats "node.ipc_bytes" bytes

(* ---- Processes (shared-memory mode) ---- *)

(* All processes must reserve the same number of PVMA frames
   (section 4.1.2). *)
let register_processes t n =
  if Array.length t.procs > 0 then invalid_arg "Node_server: processes already registered";
  let procs =
    Array.init n (fun proc_id ->
        let pvma = Vmem.create ~page_size:t.page_size () in
        let pvma_base = Vmem.reserve pvma t.n_vframes in
        { proc_id; pvma; pvma_base })
  in
  t.procs <- procs;
  t.clock <-
    Two_level.create ~n_procs:n ~n_vframes:t.n_vframes ~n_slots:(Cache.nslots t.cache)
      ~protect:(fun ~proc ~vframe ->
        let p = procs.(proc) in
        Vmem.set_prot p.pvma (p.pvma_base + (vframe * t.page_size)) 1 Prot_none)
      ~invalidate:(fun ~proc ~vframe ->
        let p = procs.(proc) in
        let addr = p.pvma_base + (vframe * t.page_size) in
        if Vmem.frame_at p.pvma addr <> None then Vmem.unmap p.pvma addr);
  procs

let proc t i = t.procs.(i)

(* ---- Upstream transaction management ----

   The node server holds one upstream transaction on behalf of its local
   applications at a time (local transactions multiplex onto it; client
   commit boundaries drive upstream commit). *)

let upstream_txn t =
  match t.txn with
  | Some txn -> txn
  | None ->
      let txn = Server.begin_txn t.upstream ~client:t.id in
      t.txn <- Some txn;
      txn

let lock_page t page mode =
  let txn = upstream_txn t in
  match
    Server.lock t.upstream ~txn (Lock_mgr.page_resource ~area:page.Page_id.area ~page:page.Page_id.page) mode
  with
  | `Granted -> ()
  | `Blocked -> raise Fetcher.Would_block
  | `Deadlock -> raise Fetcher.Deadlock_abort
  | `Timeout -> raise Fetcher.Lock_timeout

(* Bring a page into the shared cache (fetching from the owning server on
   a miss), returning its slot. The two-level clock chooses victims. *)
let shared_slot t page ~mode =
  match Cache.lookup t.cache page with
  | Some slot -> slot
  | None ->
      lock_page t page mode;
      (* The two-level clock chooses victims; a victim has counter zero,
         so no process still maps it, and its SMT frame is released as
         part of eviction. *)
      Cache.set_victim_chooser t.cache (fun () ->
          match
            Two_level.choose_victim t.clock ~can_evict:(fun i ->
                (Cache.slot t.cache i).Cache.pins = 0)
          with
          | Some i ->
              (match (Cache.slot t.cache i).Cache.page with
              | Some victim_page -> Smt.release t.smt victim_page
              | None -> ());
              Some i
          | None -> None);
      let slot =
        Cache.load t.cache page ~fill:(fun buf ->
            (* Our own uncommitted writes take precedence over the
               upstream (committed) copy. *)
            match Hashtbl.find_opt t.pending_writes page with
            | Some parked -> Bytes.blit parked 0 buf 0 t.page_size
            | None ->
                Server.read_into t.upstream page ~off:0 buf ~dst_off:0 ~len:t.page_size;
                Bess_util.Stats.incr t.stats "node.upstream_fetches")
      in
      (* A refetched dirty page is still dirty. *)
      if Hashtbl.mem t.pending_writes page then begin
        Cache.mark_dirty t.cache slot;
        Hashtbl.remove t.pending_writes page
      end;
      Cache.unpin t.cache slot;
      slot

(* ---- Shared-memory mode access ---- *)

(* Map [page] into [proc]'s PVMA at the SMT-assigned frame and return the
   process-local address. Latch acquisition is counted per access. *)
let shm_access t ~proc:proc_id page ~write =
  let p = t.procs.(proc_id) in
  Bess_util.Stats.incr t.stats "node.latch_acquires";
  if write then lock_page t page Lock_mode.X;
  let slot = shared_slot t page ~mode:(if write then Lock_mode.X else Lock_mode.S) in
  let vframe =
    match Smt.assign t.smt page with
    | Some v -> v
    | None -> failwith "Node_server: SVMA exhausted"
  in
  let addr = p.pvma_base + (vframe * t.page_size) in
  (match Two_level.state t.clock ~proc:proc_id ~vframe with
  | Bess_cache.State_clock.Invalid ->
      Vmem.map p.pvma addr slot.Cache.bytes;
      Vmem.set_prot p.pvma addr 1 Prot_read_write;
      Two_level.map t.clock ~proc:proc_id ~vframe ~slot:slot.Cache.index;
      Bess_util.Stats.incr t.stats "node.shm_maps"
  | Bess_cache.State_clock.Protected ->
      Vmem.set_prot p.pvma addr 1 Prot_read_write;
      Two_level.access t.clock ~proc:proc_id ~vframe
  | Bess_cache.State_clock.Accessible -> ());
  if write then begin
    Cache.mark_dirty t.cache slot;
    Hashtbl.replace t.dirty page ()
  end;
  Bess_util.Stats.incr t.stats "node.shm_accesses";
  (addr, vframe)

(* SVMA pointer translation: the shm_ref<T> template of section 4.1.2. *)
let svma_of_addr t ~proc:proc_id addr =
  let p = t.procs.(proc_id) in
  addr - p.pvma_base

let addr_of_svma t ~proc:proc_id svma =
  let p = t.procs.(proc_id) in
  p.pvma_base + svma

(* ---- Copy-on-access mode ---- *)

(* One IPC round trip: request (small) + reply carrying the page bytes,
   which the client copies into its private pool. *)
let coa_fetch t page ~write =
  account_ipc t ~bytes:32;
  if write then lock_page t page Lock_mode.X;
  let slot = shared_slot t page ~mode:(if write then Lock_mode.X else Lock_mode.S) in
  let copy = Bytes.copy slot.Cache.bytes in
  account_ipc t ~bytes:t.page_size;
  Bess_util.Stats.incr t.stats "node.coa_fetches";
  copy

(* The client ships a modified private page back (write IPC). The X lock
   is (re)acquired for the current transaction even when the page is
   already in the shared cache. *)
let coa_write_back t page bytes =
  account_ipc t ~bytes:(Bytes.length bytes + 32);
  lock_page t page Lock_mode.X;
  let slot = shared_slot t page ~mode:Lock_mode.X in
  Bytes.blit bytes 0 slot.Cache.bytes 0 t.page_size;
  Cache.mark_dirty t.cache slot;
  Hashtbl.replace t.dirty page ();
  Bess_util.Stats.incr t.stats "node.coa_writebacks"

(* ---- Transaction boundaries ---- *)

(* Every dirty shared page as a full-page update. The before-image is
   the upstream's copy: the node holds the page's X lock, so that copy is
   the committed state an abort or a restart undo must put back. *)
let collect_updates t =
  Hashtbl.fold
    (fun page () acc ->
      let image =
        match Cache.find_slot t.cache page with
        | Some slot when slot.Cache.dirty -> Some (Bytes.copy slot.Cache.bytes)
        | _ -> Option.map Bytes.copy (Hashtbl.find_opt t.pending_writes page)
      in
      match image with
      | Some after ->
          { Server.page; offset = 0; before = Server.read_page t.upstream page; after } :: acc
      | None -> acc)
    t.dirty []

(* Commit the node-wide transaction upstream: ship every dirty shared
   page as a full-page update. *)
let commit t =
  match t.txn with
  | None -> ()
  | Some txn ->
      let updates = collect_updates t in
      (match Server.commit_client t.upstream ~txn ~updates with
      | `Committed -> ()
      | `Lock_violation -> failwith "Node_server.commit: lock violation");
      Hashtbl.reset t.dirty;
      t.txn <- None;
      Bess_util.Stats.incr t.stats "node.commits"

let abort t =
  match t.txn with
  | None -> ()
  | Some txn ->
      Server.abort_client t.upstream ~txn;
      (* Dirty shared pages are stale: unmap them from every process,
         release their SMT frames, and drop them from the cache. *)
      Hashtbl.iter
        (fun page () ->
          (match Smt.vframe_of t.smt page with
          | Some vframe ->
              Array.iteri
                (fun proc_id _ -> Two_level.unmap t.clock ~proc:proc_id ~vframe)
                t.procs;
              Smt.release t.smt page
          | None -> ());
          (try Cache.discard t.cache page with Invalid_argument _ -> ()))
        t.dirty;
      Hashtbl.reset t.dirty;
      t.txn <- None;
      Bess_util.Stats.incr t.stats "node.aborts"

(* ---- Client logging (the future work of section 6) ----

   "The BeSS node server running on a node that has local disk space can
   exploit this space for logging purposes. In this way, the BeSS node
   server will be able to commit local transactions, rollback local
   transactions, and recover from node crashes."

   With client logging enabled, {!commit_local} makes a transaction
   durable by forcing the *local* log only -- no upstream messages on the
   commit path. The updates stay queued (write-behind) while the node
   keeps its upstream X locks, so no other client can observe the
   un-propagated state; {!propagate} ships the queue upstream in one
   batch. After a node crash, {!recover_node} replays the local log:
   orphaned upstream transactions are aborted, locks re-acquired, and the
   locally committed work re-shipped. *)

type client_log = {
  log : Bess_wal.Log.t;
  log_path : string option;
  gc : Bess_wal.Group_commit.t; (* local-commit force scheduler *)
  mutable local_txns : int;
  mutable queue : (int * Server.update list) list; (* locally committed, unshipped *)
}

let client_logs : (int, client_log) Hashtbl.t = Hashtbl.create 4
(* keyed by node id so a "rebooted" node (fresh record, same id) finds
   its durable log again; path-backed logs survive real restarts too. *)

let enable_client_logging ?path ?group_commit t =
  let cl =
    match Hashtbl.find_opt client_logs t.id with
    | Some cl -> cl
    | None ->
        let log = Bess_wal.Log.create ?path () in
        let cl =
          { log; log_path = path; gc = Bess_wal.Group_commit.create log;
            local_txns = 0; queue = [] }
        in
        Hashtbl.add client_logs t.id cl;
        cl
  in
  Option.iter (Bess_wal.Group_commit.set_policy cl.gc) group_commit

let client_log t =
  match Hashtbl.find_opt client_logs t.id with
  | Some cl -> cl
  | None -> invalid_arg "Node_server: client logging not enabled"

(* Commit against the local log only: log it, register a durability
   ticket with the local group-commit scheduler, queue the updates, keep
   the upstream transaction (and its X locks) open. The local commit is
   acknowledged only once the ticket is awaited. *)
let commit_local_begin t =
  let cl = client_log t in
  let updates = collect_updates t in
  cl.local_txns <- cl.local_txns + 1;
  let ltxn = cl.local_txns in
  let prev = ref 0 in
  List.iter
    (fun (u : Server.update) ->
      prev :=
        Bess_wal.Log.append cl.log
          { prev_lsn = !prev;
            body =
              Update
                { txn = ltxn; page = { area = u.page.area; page = u.page.page };
                  offset = u.offset; before = u.before; after = u.after } })
    updates;
  let lsn = Bess_wal.Log.append cl.log { prev_lsn = !prev; body = Commit { txn = ltxn } } in
  let ticket = Bess_wal.Group_commit.commit_lsn cl.gc ~lsn in
  cl.queue <- cl.queue @ [ (ltxn, updates) ];
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.pending_writes;
  Bess_util.Stats.incr t.stats "node.local_commits";
  ticket

let await_local t ticket = Bess_wal.Group_commit.await (client_log t).gc ticket

let commit_local t = await_local t (commit_local_begin t)

(* Ship every locally committed transaction upstream in one batch and
   truncate the local log. *)
let propagate t =
  let cl = client_log t in
  if cl.queue <> [] then begin
    (* Write-behind only ships locally *durable* work: drain any commits
       still waiting on a grouped force before moving them upstream. *)
    Bess_wal.Group_commit.force cl.gc;
    let txn = upstream_txn t in
    let updates = List.concat_map snd cl.queue in
    (* Re-assert the X locks (idempotent when already held). *)
    List.iter (fun (u : Server.update) -> lock_page t u.page Lock_mode.X) updates;
    (match Server.commit_client t.upstream ~txn ~updates with
    | `Committed -> ()
    | `Lock_violation -> failwith "Node_server.propagate: lock violation");
    t.txn <- None;
    cl.queue <- [];
    Bess_wal.Log.crash cl.log () (* truncate: everything is upstream now *);
    Bess_wal.Group_commit.reset cl.gc;
    Bess_util.Stats.incr t.stats "node.propagations"
  end

(* Node crash: all volatile state dies; the client log survives. *)
let crash_node t =
  let resident = ref [] in
  Cache.iter_resident t.cache (fun page _ -> resident := page :: !resident);
  List.iter (fun p -> try Cache.discard t.cache p with Invalid_argument _ -> ()) !resident;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.pending_writes;
  t.txn <- None;
  (match Hashtbl.find_opt client_logs t.id with
  | Some cl ->
      cl.queue <- [] (* the volatile queue is gone; the log is not *);
      Bess_wal.Group_commit.reset cl.gc;
      Bess_wal.Log.crash cl.log () (* lose the unforced tail too *)
  | None -> ());
  Bess_util.Stats.incr t.stats "node.crashes"

(* Reboot: abort orphaned upstream transactions, rebuild the unshipped
   queue from the durable local log, re-lock and re-ship. *)
let recover_node t =
  let cl = client_log t in
  (* Orphans at the upstream (our old transaction, its locks still held). *)
  ignore (Server.abort_client_txns t.upstream ~client:t.id);
  (* Replay the local log: committed local transactions only. *)
  let committed = Hashtbl.create 8 in
  Bess_wal.Log.iter cl.log (fun _ (r : Bess_wal.Log_record.t) ->
      match r.body with
      | Commit { txn } -> Hashtbl.replace committed txn ()
      | _ -> ());
  let by_txn : (int, Server.update list) Hashtbl.t = Hashtbl.create 8 in
  Bess_wal.Log.iter cl.log (fun _ (r : Bess_wal.Log_record.t) ->
      match r.body with
      | Update u when Hashtbl.mem committed u.txn ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_txn u.txn) in
          Hashtbl.replace by_txn u.txn
            (prev
            @ [ { Server.page = { Page_id.area = u.page.area; page = u.page.page };
                  offset = u.offset; before = u.before; after = u.after } ])
      | _ -> ());
  cl.queue <-
    Hashtbl.fold (fun txn updates acc -> (txn, updates) :: acc) by_txn []
    |> List.sort compare;
  Bess_util.Stats.incr t.stats "node.recoveries";
  propagate t
