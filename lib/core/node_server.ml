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
  (* Client logging, once enabled (see {!enable_client_logging}): the
     local log, and the updates of the local commits it holds, not yet
     shipped upstream, newest first. *)
  mutable client_log : Bess_wal.Log.t option;
  mutable queue : Server.update list;
  stats : Bess_util.Stats.t;
}

(* The node serves databases of the default page size. *)
let page_size = 4096

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
let create ?(cache_slots = 256) ?(n_vframes = 1024) ?(n_procs = 0) (fetcher : Fetcher.t) =
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
      txn = None;
      dirty = Hashtbl.create 32;
      free_images = [];
      pending_writes = Hashtbl.create 32;
      staging = Bytes.create page_size;
      client_log = None;
      queue = [];
      stats = Bess_util.Stats.create ();
    }
  in
  Cache.set_writeback t.cache (fun page bytes ~lsn:_ ->
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

(* ---- Client logging (the future work of section 6) ----

   "The BeSS node server running on a node that has local disk space can
   exploit this space for logging purposes. In this way, the BeSS node
   server will be able to commit local transactions, rollback local
   transactions, and recover from node crashes."

   With client logging enabled, {!commit_local} makes a transaction
   durable by forcing the *local* log only -- no upstream messages on the
   commit path. Its updates join the node's queue (write-behind) and the
   upstream transaction stays open, so its X locks keep every other
   client off the unshipped state. {!commit} is the one way work goes
   upstream: one upstream commit ships the queue, oldest first, then the
   open write set, and the local log, whose work is now upstream's,
   starts afresh. So the log covers at most the upstream transaction now
   open: a forced mark naming it, written when the node opens it (or
   when logging is enabled with it open), then the local commits made
   under it. After a node crash, {!recover_node} folds that log: the
   marked transaction, the orphan, is aborted through the fetcher, and
   the local commits are re-locked and re-shipped. *)

(* Force a mark naming [txn], the upstream transaction just opened. *)
let mark_upstream log txn =
  ignore
    (Bess_wal.Log.append log
       { prev_lsn = 0;
         body = End_checkpoint { txns = [ (txn, 0, Bess_wal.Log_record.Running) ]; dirty = [] } });
  Bess_wal.Log.flush log ()

let client_log t =
  match t.client_log with
  | Some log -> log
  | None -> invalid_arg "Node_server: client logging not enabled"

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
      Option.iter (fun log -> mark_upstream log txn) t.client_log;
      txn

let lock_page t page mode =
  let txn = upstream_txn t in
  t.fetcher.f_lock ~txn
    (Lock_mgr.page_resource ~area:page.Page_id.area ~page:page.Page_id.page)
    mode

(* The node's own image of a page upstream does not have yet: a dirty
   page evicted mid-transaction, else the newest queued local commit's.
   Either takes precedence over the upstream (committed) copy. *)
let own_image t page =
  match Hashtbl.find_opt t.pending_writes page with
  | Some _ as image -> image
  | None ->
      List.find_map
        (fun (u : Server.update) -> if Page_id.equal u.page page then Some u.after else None)
        t.queue

(* Bring a page into the shared cache (fetching from the owning server on
   a miss), returning its slot; a write takes the X lock even when the
   page is resident. Residency is peeked so that the one [Cache.load]
   counts the access: a hit or a miss, never both. A miss locks and
   fetches before [Cache.load] picks a victim, so a refused lock evicts
   nothing. *)
let shared_slot t page ~write =
  let mode = if write then Lock_mode.X else Lock_mode.S in
  if write then lock_page t page mode;
  let own =
    if Cache.find_slot t.cache page <> None then None
    else
      match own_image t page with
      | Some _ as image ->
          lock_page t page mode;
          image
      | None ->
          t.fetcher.f_fetch_page ~txn:(upstream_txn t) page ~mode ~into:t.staging;
          Bess_util.Stats.incr t.stats "node.upstream_fetches";
          None
  in
  let slot =
    Cache.load t.cache page ~fill:(fun buf ->
        Bytes.blit (Option.value own ~default:t.staging) 0 buf 0 page_size)
  in
  (* A refetched dirty page is still dirty. *)
  if own <> None then begin
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
      | [] -> Bytes.create page_size
    in
    Bytes.blit slot.bytes 0 image 0 page_size;
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
  let addr = p.pvma_base + (vframe * page_size) in
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
  account_ipc t ~bytes:page_size;
  Bess_util.Stats.incr t.stats "node.coa_fetches";
  copy

(* The client ships a modified private page back (write IPC). The X lock
   is (re)acquired for the current transaction even when the page is
   already in the shared cache. *)
let coa_write_back t page bytes =
  account_ipc t ~bytes:(Bytes.length bytes + 32);
  let slot = shared_slot t page ~write:true in
  mark_written t page slot;
  Bytes.blit bytes 0 slot.Cache.bytes 0 page_size;
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
              let addr = p.pvma_base + (vframe * page_size) in
              if Vmem.prot_at p.pvma addr = Vmem.Prot_read_write then
                Vmem.set_prot p.pvma addr 1 Vmem.Prot_read)
            t.procs)
        (Smt.vframe_of t.smt page))
    t.dirty;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.pending_writes

(* Mark a shipped page clean: upstream now holds its cached bytes, so
   evicting it later parks nothing. *)
let mark_shipped t page = Option.iter (Cache.mark_clean t.cache) (Cache.find_slot t.cache page)

(* The upstream transaction is over, and with it the client log's work:
   committed upstream, or void. The log starts afresh. *)
let end_upstream t =
  t.txn <- None;
  t.queue <- [];
  if Option.is_some t.client_log then t.client_log <- Some (Bess_wal.Log.create ())

(* The node's one upstream commit: the queued local commits, oldest
   first, then every dirty shared page of the open write set as a
   full-page update, in one commit of the node-wide transaction. The
   shipped pages are clean afterwards. (A local commit keeps them dirty,
   since upstream still holds the old value.) *)
let commit t =
  match t.txn with
  | None -> ()
  | Some txn ->
      t.fetcher.f_commit ~txn (List.rev_append t.queue (collect_updates t));
      List.iter (fun (u : Server.update) -> mark_shipped t u.page) t.queue;
      Hashtbl.iter (fun page _ -> mark_shipped t page) t.dirty;
      finish_write_set t;
      end_upstream t;
      Bess_util.Stats.incr t.stats "node.commits"

(* Roll back the current local transaction. Its dirty shared pages are
   stale: unmap them from every process, release their SMT frames, and
   drop them from the cache (a locally committed one refetches from the
   queue). With no local commit queued the upstream transaction aborts
   too; otherwise it stays open, and its X locks keep hiding the queued
   work until {!commit} ships it. *)
let abort t =
  match t.txn with
  | None -> ()
  | Some txn ->
      let ends = t.queue = [] in
      if ends then t.fetcher.f_abort ~txn;
      Hashtbl.iter (fun page _ -> drop_page t page) t.dirty;
      finish_write_set t;
      if ends then end_upstream t;
      Bess_util.Stats.incr t.stats "node.aborts"

(* ---- Client logging ---- *)

let enable_client_logging t =
  if Option.is_none t.client_log then begin
    let log = Bess_wal.Log.create () in
    t.client_log <- Some log;
    (* An upstream transaction already open becomes the orphan a restart
       must abort. *)
    Option.iter (mark_upstream log) t.txn
  end

(* Commit against the local log only: log the write set as one local
   transaction (its records name the upstream transaction it rides on),
   force the log through its commit record, queue the updates, and keep
   the upstream transaction (and its X locks) open. *)
let commit_local t =
  let log = client_log t in
  let txn = Option.value t.txn ~default:0 in
  let updates = collect_updates t in
  let prev_lsn =
    List.fold_left
      (fun prev_lsn (u : Server.update) ->
        Bess_wal.Log.append log
          { prev_lsn;
            body =
              Update
                { txn; page = u.page; offset = u.offset; before = u.before; after = u.after } })
      0 updates
  in
  ignore (Bess_wal.Log.append log { prev_lsn; body = Commit { txn } });
  Bess_wal.Log.flush log ();
  t.queue <- List.rev_append updates t.queue;
  finish_write_set t;
  Bess_util.Stats.incr t.stats "node.local_commits"

(* Ship the queued local commits upstream: re-assert their X locks
   (idempotent while the upstream transaction that took them is open;
   after a node crash they died with the orphan), then {!commit}. Each
   local commit forced its own records, so there is nothing left to
   force first. *)
let propagate t =
  List.iter (fun (u : Server.update) -> lock_page t u.page Lock_mode.X) t.queue;
  commit t

(* Node crash: all volatile state dies; the client log survives. *)
let crash_node t =
  let resident = ref [] in
  Cache.iter_resident t.cache (fun page _ -> resident := page :: !resident);
  List.iter (fun p -> try Cache.discard t.cache p with Invalid_argument _ -> ()) !resident;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.pending_writes;
  t.txn <- None;
  t.queue <- [];
  Option.iter (fun log -> Bess_wal.Log.crash log ()) t.client_log;
  Bess_util.Stats.incr t.stats "node.crashes"

(* Reboot: one pass over the durable local log finds the orphaned
   upstream transaction (the last mark's: a recovery whose re-lock was
   refused leaves a second) and the local commits made under the marks
   (updates whose commit record was lost are void); abort the orphan,
   then re-lock and re-ship. *)
let recover_node t =
  let orphan, _, queue =
    Bess_wal.Log.fold (client_log t)
      (fun ((orphan, batch, queue) as acc) _ (r : Bess_wal.Log_record.t) ->
        match r.body with
        | End_checkpoint { txns = (txn, _, _) :: _; _ } -> (Some txn, batch, queue)
        | Update u ->
            ( orphan,
              { Server.page = u.page; offset = u.offset; before = u.before; after = u.after }
              :: batch,
              queue )
        | Commit _ -> (orphan, [], batch @ queue)
        | _ -> acc)
      (None, [], [])
  in
  Option.iter (fun txn -> t.fetcher.f_abort ~txn) orphan;
  t.queue <- queue;
  Bess_util.Stats.incr t.stats "node.recoveries";
  propagate t
