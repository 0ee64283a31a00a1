(* The BeSS node server and the two client operation modes (section 4).

   A node server is "a BeSS server that does not own any storage areas":
   it keeps a shared cache on its node, fetches data from the owning
   server, acquires locks on behalf of local applications, and answers
   callbacks. Upstream it is one client like any session: every begin,
   lock, fetch, commit and abort goes through its {!Fetcher.t} (direct
   when co-located, {!Remote.fetcher} across the network), and its
   callback sink follows {!Session}'s rule -- refuse while the node's
   transaction is open, otherwise drop the page from the shared cache,
   the SMT and every process's PVMA. Local applications use it in one of
   two modes:

   - Copy on access: the application keeps a private buffer pool and asks
     the node server (inter-process communication, costed per message and
     per byte copied) for each segment it misses.

   - Shared memory: the application maps the shared cache directly. The
     shared mapping table (SMT) pins each cached page to one virtual
     frame index for every process; pointers are SVMA offsets; latches
     synchronise access; replacement runs the two-level clock. A page is
     mapped read-only until a write access asks for it (so a store is
     never untracked), and commit puts written mappings back to
     read-only.

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
  fetcher : Fetcher.t; (* the owning server, for all data this node touches *)
  cache : Cache.t; (* the shared cache (Figure 3) *)
  smt : Smt.t;
  clock : Two_level.t;
  procs : proc array;
  page_size : int;
  mutable txn : int option; (* node-server-wide transaction at the upstream *)
  (* Each page the transaction wrote, with its before-image: the page's
     committed bytes, copied at its first write under the X lock into a
     node-owned buffer. *)
  dirty : (Page_id.t, Bytes.t) Hashtbl.t;
  mutable free_images : Bytes.t list; (* before-image buffers to reuse *)
  (* Dirty pages evicted before commit park here (their X locks are held,
     so this is just deferred shipping); consulted on refetch so the
     transaction keeps seeing its own writes. Commit and abort empty it. *)
  pending_writes : (Page_id.t, Bytes.t) Hashtbl.t;
  staging : Bytes.t; (* a missed page's upstream fetch lands here *)
  stats : Bess_util.Stats.t;
}

(* IPC cost model for copy-on-access requests (local socket, not LAN),
   charged to the simulated clock: per message and per byte copied. *)
let local_msg_ns = 15_000
let local_byte_ns = 1

(* Drop [page] from the node: unmap it from every process, release its
   SMT frame and discard it from the shared cache. A callback and an
   abort both come here. *)
let drop_page t page =
  (match Smt.vframe_of t.smt page with
  | Some vframe ->
      Array.iteri (fun proc_id _ -> Two_level.unmap t.clock ~proc:proc_id ~vframe) t.procs;
      Smt.release t.smt page
  | None -> ());
  try Cache.discard t.cache page with Invalid_argument _ -> ()

(* [n_procs] shared-memory processes attach at creation. All of them
   reserve the same number of PVMA frames (section 4.1.2). The node's
   client id upstream is [fetcher.client_id]. *)
let create ?(cache_slots = 256) ?(n_vframes = 1024) ?(page_size = 4096)
    ?(n_procs = 0) (fetcher : Fetcher.t) =
  let cache = Cache.create ~nslots:cache_slots ~page_size in
  let smt = Smt.create ~n_vframes in
  let procs =
    Array.init n_procs (fun proc_id ->
        let pvma = Vmem.create ~page_size () in
        let pvma_base = Vmem.reserve pvma n_vframes in
        { proc_id; pvma; pvma_base })
  in
  let clock =
    Two_level.create ~n_procs ~n_vframes ~n_slots:cache_slots
      ~protect:(fun ~proc ~vframe ->
        let p = procs.(proc) in
        Vmem.set_prot p.pvma (p.pvma_base + (vframe * page_size)) 1 Prot_none)
      ~invalidate:(fun ~proc ~vframe ->
        let p = procs.(proc) in
        let addr = p.pvma_base + (vframe * page_size) in
        if Vmem.frame_at p.pvma addr <> None then Vmem.unmap p.pvma addr)
  in
  let t =
    {
      fetcher;
      cache;
      smt;
      clock;
      procs;
      page_size;
      txn = None;
      dirty = Hashtbl.create 32;
      free_images = [];
      pending_writes = Hashtbl.create 32;
      staging = Bytes.create page_size;
      stats = Bess_util.Stats.create ();
    }
  in
  Cache.set_writeback t.cache (fun page bytes ->
      (* A dirty shared page evicted mid-transaction: park its image
         until commit ships it upstream. *)
      Hashtbl.replace t.pending_writes page (Bytes.copy bytes);
      Bess_util.Stats.incr t.stats "node.dirty_parked");
  (* The two-level clock chooses victims; a victim has counter zero, so
     no process still maps it, and its SMT frame is released as part of
     eviction. *)
  Cache.set_victim_chooser cache (fun () ->
      match
        Two_level.choose_victim clock ~can_evict:(fun i -> (Cache.slot cache i).Cache.pins = 0)
      with
      | Some i ->
          (match (Cache.slot cache i).Cache.page with
          | Some victim_page -> Smt.release smt victim_page
          | None -> ());
          Some i
      | None -> None);
  (* Callback locking (section 3), as a session answers it. *)
  fetcher.f_register_sink
    (Fetcher.page_sink ~busy:(fun () -> t.txn <> None) ~drop:(drop_page t));
  t

let stats t = t.stats
let cache t = t.cache
let smt t = t.smt
let clock t = t.clock

let account_ipc t ~bytes =
  Bess_obs.Span.advance_ns (local_msg_ns + (bytes * local_byte_ns));
  Bess_util.Stats.incr t.stats "node.ipc_messages";
  Bess_util.Stats.add t.stats "node.ipc_bytes" bytes

let procs t = t.procs

(* ---- Client logging state (the future work of section 6) ----

   "The BeSS node server running on a node that has local disk space can
   exploit this space for logging purposes. In this way, the BeSS node
   server will be able to commit local transactions, rollback local
   transactions, and recover from node crashes."

   With client logging enabled, {!commit_local} makes a transaction
   durable by forcing the *local* log only -- no upstream messages on the
   commit path. The updates stay queued (write-behind) while the node
   keeps its upstream X locks, so no other client can observe the
   un-propagated state; {!propagate} ships the queue upstream in one
   batch. Each upstream transaction the node opens (or has open when
   logging is enabled) is marked in the log by a forced checkpoint
   record naming it; each propagation, once upstream has committed it,
   by one naming none. After a node crash, {!recover_node} replays the
   local log: the upstream transaction of the last mark, the orphan, is
   aborted through the fetcher, locks re-acquired, and the work locally
   committed since the last propagation mark re-shipped. *)

type client_log = {
  log : Bess_wal.Log.t;
  gc : Bess_wal.Group_commit.t; (* local-commit force scheduler *)
  mutable local_txns : int;
  mutable queue : Server.update list list; (* locally committed, unshipped; newest first *)
}

let client_logs : (int, client_log) Hashtbl.t = Hashtbl.create 4
(* keyed by node id so a "rebooted" node (fresh record, same id) finds
   its durable log again; path-backed logs survive real restarts too. *)

let id t = t.fetcher.client_id

let client_log t =
  match Hashtbl.find_opt client_logs (id t) with
  | Some cl -> cl
  | None -> invalid_arg "Node_server: client logging not enabled"

(* Force a mark naming the upstream transaction now running, if any. *)
let mark_upstream cl txn =
  let txns = match txn with Some txn -> [ (txn, 0, Bess_wal.Log_record.Running) ] | None -> [] in
  ignore (Bess_wal.Log.append cl.log { prev_lsn = 0; body = End_checkpoint { txns; dirty = [] } });
  Bess_wal.Log.flush cl.log ()

(* ---- Upstream transaction management ----

   The node server holds one upstream transaction on behalf of its local
   applications at a time (local transactions multiplex onto it; client
   commit boundaries drive upstream commit). *)

let upstream_txn t =
  match t.txn with
  | Some txn -> txn
  | None ->
      let txn = t.fetcher.f_begin () in
      t.txn <- Some txn;
      Option.iter (fun cl -> mark_upstream cl (Some txn)) (Hashtbl.find_opt client_logs (id t));
      txn

let lock_page t page mode =
  let txn = upstream_txn t in
  t.fetcher.f_lock ~txn
    (Lock_mgr.page_resource ~area:page.Page_id.area ~page:page.Page_id.page)
    mode

(* Bring a page into the shared cache (fetching from the owning server on
   a miss), returning its slot; a write takes the X lock even when the
   page is resident. Residency is peeked so that the one [Cache.load]
   counts the access: a hit or a miss, never both. A miss locks and
   fetches before [Cache.load] picks a victim, so a refused lock evicts
   nothing. *)
let shared_slot t page ~write =
  let mode = if write then Lock_mode.X else Lock_mode.S in
  if write then lock_page t page mode;
  let parked = Hashtbl.find_opt t.pending_writes page in
  if Cache.find_slot t.cache page = None then begin
    match parked with
    | Some _ -> lock_page t page mode
    | None ->
        t.fetcher.f_fetch_page ~txn:(upstream_txn t) page ~mode ~into:t.staging;
        Bess_util.Stats.incr t.stats "node.upstream_fetches"
  end;
  let slot =
    Cache.load t.cache page ~fill:(fun buf ->
        (* Our own uncommitted writes take precedence over the upstream
           (committed) copy. *)
        Bytes.blit (Option.value parked ~default:t.staging) 0 buf 0 t.page_size)
  in
  (* A refetched dirty page is still dirty. *)
  if parked <> None then begin
    Cache.mark_dirty t.cache slot;
    Hashtbl.remove t.pending_writes page
  end;
  Cache.unpin t.cache slot;
  slot

(* The transaction writes [slot]'s page: the first write keeps the
   committed bytes as its before-image, in a buffer the node reuses. *)
let mark_written t page (slot : Cache.slot) =
  Cache.mark_dirty t.cache slot;
  if not (Hashtbl.mem t.dirty page) then begin
    let image =
      match t.free_images with
      | b :: rest ->
          t.free_images <- rest;
          b
      | [] -> Bytes.create t.page_size
    in
    Bytes.blit slot.bytes 0 image 0 t.page_size;
    Hashtbl.replace t.dirty page image
  end

(* ---- Shared-memory mode access ---- *)

(* Map [page] into [proc]'s PVMA at the SMT-assigned frame and return the
   process-local address. Latch acquisition is counted per access. The
   mapping is read-only unless the page is written: a write access maps
   it read-write, upgrading a read-only mapping. *)
let shm_access t ~proc:proc_id page ~write =
  let p = t.procs.(proc_id) in
  Bess_util.Stats.incr t.stats "node.latch_acquires";
  let slot = shared_slot t page ~write in
  let vframe =
    match Smt.assign t.smt page with
    | Some v -> v
    | None -> failwith "Node_server: SVMA exhausted"
  in
  let addr = p.pvma_base + (vframe * t.page_size) in
  if write then mark_written t page slot;
  let prot = if Hashtbl.mem t.dirty page then Vmem.Prot_read_write else Vmem.Prot_read in
  (match Two_level.state t.clock ~proc:proc_id ~vframe with
  | Bess_cache.State_clock.Invalid ->
      Vmem.map p.pvma addr slot.Cache.bytes;
      Vmem.set_prot p.pvma addr 1 prot;
      Two_level.map t.clock ~proc:proc_id ~vframe ~slot:slot.Cache.index;
      Bess_util.Stats.incr t.stats "node.shm_maps"
  | Bess_cache.State_clock.Protected ->
      Vmem.set_prot p.pvma addr 1 prot;
      Two_level.access t.clock ~proc:proc_id ~vframe
  | Bess_cache.State_clock.Accessible ->
      if write && Vmem.prot_at p.pvma addr <> Vmem.Prot_read_write then
        Vmem.set_prot p.pvma addr 1 Vmem.Prot_read_write);
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
  let slot = shared_slot t page ~write in
  let copy = Bytes.copy slot.Cache.bytes in
  account_ipc t ~bytes:t.page_size;
  Bess_util.Stats.incr t.stats "node.coa_fetches";
  copy

(* The client ships a modified private page back (write IPC). The X lock
   is (re)acquired for the current transaction even when the page is
   already in the shared cache. *)
let coa_write_back t page bytes =
  account_ipc t ~bytes:(Bytes.length bytes + 32);
  let slot = shared_slot t page ~write:true in
  mark_written t page slot;
  Bytes.blit bytes 0 slot.Cache.bytes 0 t.page_size;
  Bess_util.Stats.incr t.stats "node.coa_writebacks"

(* ---- Transaction boundaries ---- *)

(* Every dirty shared page as a full-page update, with a copy of the
   before-image its first write kept: the committed state an abort or a
   restart undo must put back. The update owns its images, so the node's
   buffers go back to its free list. *)
let collect_updates t =
  Hashtbl.fold
    (fun page before acc ->
      let image =
        match Cache.find_slot t.cache page with
        | Some slot when slot.Cache.dirty -> Some (Bytes.copy slot.Cache.bytes)
        | _ -> Option.map Bytes.copy (Hashtbl.find_opt t.pending_writes page)
      in
      match image with
      | Some after -> { Server.page; offset = 0; before = Bytes.copy before; after } :: acc
      | None -> acc)
    t.dirty []

(* End a (local) transaction: written pages still mapped read-write go
   back to read-only, so the next store must ask again, the before-image
   buffers are free again, and the write set and the parked images are
   spent. *)
let finish_write_set t =
  Hashtbl.iter
    (fun page image ->
      t.free_images <- image :: t.free_images;
      Option.iter
        (fun vframe ->
          Array.iter
            (fun p ->
              let addr = p.pvma_base + (vframe * t.page_size) in
              if Vmem.prot_at p.pvma addr = Vmem.Prot_read_write then
                Vmem.set_prot p.pvma addr 1 Vmem.Prot_read)
            t.procs)
        (Smt.vframe_of t.smt page))
    t.dirty;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.pending_writes

(* Commit the node-wide transaction upstream: ship every dirty shared
   page as a full-page update. Upstream then holds the cached bytes, so
   the shipped pages are clean: evicting one later parks nothing. (A
   local commit keeps them dirty, since upstream still holds the old
   value.) *)
let commit t =
  match t.txn with
  | None -> ()
  | Some txn ->
      t.fetcher.f_commit ~txn (collect_updates t);
      Hashtbl.iter
        (fun page _ -> Option.iter (Cache.mark_clean t.cache) (Cache.find_slot t.cache page))
        t.dirty;
      finish_write_set t;
      t.txn <- None;
      Bess_util.Stats.incr t.stats "node.commits"

let abort t =
  match t.txn with
  | None -> ()
  | Some txn ->
      t.fetcher.f_abort ~txn;
      (* Dirty shared pages are stale: unmap them from every process,
         release their SMT frames, and drop them from the cache. *)
      Hashtbl.iter (fun page _ -> drop_page t page) t.dirty;
      finish_write_set t;
      t.txn <- None;
      Bess_util.Stats.incr t.stats "node.aborts"

(* ---- Client logging ---- *)

let enable_client_logging ?path ?group_commit t =
  let cl =
    match Hashtbl.find_opt client_logs (id t) with
    | Some cl -> cl
    | None ->
        let log = Bess_wal.Log.create ?path () in
        let cl = { log; gc = Bess_wal.Group_commit.create log; local_txns = 0; queue = [] } in
        Hashtbl.add client_logs (id t) cl;
        cl
  in
  (* An upstream transaction already open becomes the orphan a restart
     must abort. *)
  if t.txn <> None then mark_upstream cl t.txn;
  Option.iter (Bess_wal.Group_commit.set_policy cl.gc) group_commit

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
                { txn = ltxn; page = u.page;
                  offset = u.offset; before = u.before; after = u.after } })
    updates;
  let lsn = Bess_wal.Log.append cl.log { prev_lsn = !prev; body = Commit { txn = ltxn } } in
  let ticket = Bess_wal.Group_commit.commit_lsn cl.gc ~lsn in
  cl.queue <- updates :: cl.queue;
  finish_write_set t;
  Bess_util.Stats.incr t.stats "node.local_commits";
  ticket

let await_local t ticket = Bess_wal.Group_commit.await (client_log t).gc ticket

let commit_local t = await_local t (commit_local_begin t)

(* Ship every locally committed transaction upstream in one batch, then
   mark the log: what precedes the mark is upstream. *)
let propagate t =
  let cl = client_log t in
  if cl.queue <> [] then begin
    (* Write-behind only ships locally *durable* work: drain any commits
       still waiting on a grouped force before moving them upstream. *)
    Bess_wal.Group_commit.force cl.gc;
    let txn = upstream_txn t in
    let updates = List.concat (List.rev cl.queue) in
    (* Re-assert the X locks (idempotent when already held). *)
    List.iter (fun (u : Server.update) -> lock_page t u.page Lock_mode.X) updates;
    t.fetcher.f_commit ~txn updates;
    t.txn <- None;
    cl.queue <- [];
    mark_upstream cl None;
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
  (match Hashtbl.find_opt client_logs (id t) with
  | Some cl ->
      cl.queue <- [] (* the volatile queue is gone; the log is not *);
      Bess_wal.Group_commit.reset cl.gc;
      Bess_wal.Log.crash cl.log () (* lose the unforced tail too *)
  | None -> ());
  Bess_util.Stats.incr t.stats "node.crashes"

(* Reboot: one pass over the durable local log finds the orphaned
   upstream transaction (the last mark's) and the transactions locally
   committed since the last propagation mark (updates whose commit
   record was lost are void); abort the orphan, then re-lock and
   re-ship. *)
let recover_node t =
  let cl = client_log t in
  let orphan, _, queue =
    Bess_wal.Log.fold cl.log
      (fun ((orphan, batch, queue) as acc) _ (r : Bess_wal.Log_record.t) ->
        match r.body with
        (* A begin mark names the new orphan; only a propagation mark
           says that the work before it is upstream. *)
        | End_checkpoint { txns = (txn, _, _) :: _; _ } -> (Some txn, batch, queue)
        | End_checkpoint { txns = []; _ } -> (None, [], [])
        | Update u ->
            ( orphan,
              { Server.page = u.page; offset = u.offset; before = u.before; after = u.after }
              :: batch,
              queue )
        | Commit _ -> (orphan, [], List.rev batch :: queue)
        | _ -> acc)
      (None, [], [])
  in
  Option.iter (fun txn -> t.fetcher.f_abort ~txn) orphan;
  cl.queue <- queue;
  Bess_util.Stats.incr t.stats "node.recoveries";
  propagate t
