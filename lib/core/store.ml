(* The server-side page store: storage areas fronted by a page cache, with
   write-ahead logging and ARIES recovery wired through.

   Invariants enforced here:
   - WAL rule: a dirty page is written back only after the log is forced
     past that page's LSN.
   - Steal/no-force: dirty pages may be evicted before commit (their
     updates are already logged), and commit forces only the log, never
     data pages.

   Page LSNs are kept in the cache frames ([Cache.slot.page_lsn]) rather
   than on the pages themselves: update records carry physical byte
   images, so redo is idempotent and correct even from LSN zero. A
   frame's LSN serves the WAL rule when the frame is written back and
   filters redo while the page stays resident; an evicted or crashed
   page reads as LSN 0. (See DESIGN.md §7, "Page LSNs are volatile".) *)

module Page_id = Bess_cache.Page_id

type t = {
  areas : Bess_storage.Area_set.t;
  cache : Bess_cache.Cache.t;
  clock : Bess_cache.Clock.t; (* second-chance policy; ref bits fed by with_page *)
  log : Bess_wal.Log.t;
  gc : Bess_wal.Group_commit.t; (* force scheduler for all commit sites *)
  mutable ckpt_bytes : int; (* log size when the last checkpoint completed *)
  stats : Bess_util.Stats.t;
  c_updates : Bess_util.Stats.counter;
  c_logical_bytes : Bess_util.Stats.counter;
  c_page_flush_bytes : Bess_util.Stats.counter;
}

let create ?log_path ?log ?(cache_slots = 256) areas =
  let page_size =
    match Bess_storage.Area_set.ids areas with
    | id :: _ -> Bess_storage.Area.page_size (Bess_storage.Area_set.find areas id)
    | [] -> 4096
  in
  let cache = Bess_cache.Cache.create ~nslots:cache_slots ~page_size in
  Bess_cache.Cache.register cache;
  let the_log = match log with Some l -> l | None -> Bess_wal.Log.create ?path:log_path () in
  let stats = Bess_util.Stats.create () in
  Bess_obs.Registry.register_stats "store" stats;
  let t =
    {
      areas;
      cache;
      clock = Bess_cache.Clock.create cache;
      log = the_log;
      gc = Bess_wal.Group_commit.create the_log;
      ckpt_bytes = 0;
      stats;
      c_updates = Bess_util.Stats.counter stats "store.updates";
      c_logical_bytes = Bess_util.Stats.counter stats "store.logical_bytes";
      c_page_flush_bytes = Bess_util.Stats.counter stats "store.page_flush_bytes";
    }
  in
  (* The registry's [wal] is the store's log: a log or scheduler made
     elsewhere (a 2PC coordinator's, a node server's client log) does
     not register, so every [wal.*] names this store's. *)
  Bess_obs.Registry.register_stats "wal" (Bess_wal.Log.stats the_log);
  Bess_obs.Registry.register_gauge "wal" "wal.unflushed_bytes" (fun () ->
      Bess_wal.Log.size_bytes t.log - Bess_wal.Log.flushed_lsn t.log);
  Bess_obs.Registry.register_gauge "wal" "wal.pending_tickets" (fun () ->
      Bess_wal.Group_commit.pending t.gc);
  (* Log growth since the last completed checkpoint: the recovery-work
     backlog a checkpoint policy would bound. Clamped — a crash can
     shrink the log below the last checkpoint's high-water mark. *)
  Bess_obs.Registry.register_gauge "wal" "wal.bytes_since_checkpoint" (fun () ->
      Stdlib.max 0 (Bess_wal.Log.size_bytes t.log - t.ckpt_bytes));
  (* Write amplification so far: durable bytes (WAL forces plus page
     writebacks) per logical byte updated, x100 so the integer gauge
     keeps two digits. Per-window ratios come from the Series deltas of
     the same three counters. *)
  Bess_obs.Registry.register_gauge "wal" "wal.write_amp_x100" (fun () ->
      let logical = Bess_util.Stats.value t.c_logical_bytes in
      let durable =
        Bess_util.Stats.get (Bess_wal.Log.stats t.log) "log.forced_bytes"
        + Bess_util.Stats.value t.c_page_flush_bytes
      in
      if logical = 0 then 0 else 100 * durable / logical);
  Bess_cache.Cache.set_writeback cache (fun page bytes ~lsn ->
      (* WAL rule: force the log past this page's LSN first. A WAL-rule
         force advances the durable horizon for waiting committers too. *)
      if lsn > Bess_wal.Log.flushed_lsn t.log then begin
        Bess_wal.Log.flush t.log ~lsn ();
        Bess_wal.Group_commit.release_durable t.gc
      end;
      (* Fault sites: a torn or failed page write is *detected* (pages
         carry a modeled checksum verify-after-write) and retried from
         the still-resident frame; three consecutive failures surface as
         an injected I/O error. ARIES redo from the WAL covers whatever
         a crash interrupts, so detection-plus-retry is the whole
         repair story here. *)
      let rec put n =
        if
          Bess_fault.Fault.fire "page.flush.eio"
          || Bess_fault.Fault.fire "page.flush.torn"
        then begin
          Bess_util.Stats.incr t.stats "store.flush_retries";
          if n >= 3 then
            raise (Bess_fault.Fault.Injected "page.flush: persistent I/O error");
          put (n + 1)
        end
        else Bess_storage.Area_set.write_page areas ~area_id:page.area page.page bytes
      in
      put 1;
      Bess_util.Stats.bump_by t.c_page_flush_bytes (Bytes.length bytes));
  t

let cache t = t.cache
let log t = t.log
let areas t = t.areas
let stats t = t.stats
let set_group_policy t p = Bess_wal.Group_commit.set_policy t.gc p
let await_commit t ticket = Bess_wal.Group_commit.await t.gc ticket

(* Pin [page] in the cache, loading it on a miss; the caller unpins. *)
let pin t (page : Page_id.t) =
  let slot =
    Bess_cache.Cache.load t.cache page ~fill:(fun buf ->
        Bess_storage.Area_set.read_page_into t.areas ~area_id:page.area page.page buf)
  in
  (* The reference bit the clock sweeps: without it the policy
     degenerates to FIFO and the LRU-model miss-ratio curve has nothing
     to predict. *)
  Bess_cache.Clock.note_access t.clock slot.Bess_cache.Cache.index;
  slot

(* Pinned access to a page through the cache. *)
let with_page t page f =
  let slot = pin t page in
  Fun.protect
    ~finally:(fun () -> Bess_cache.Cache.unpin t.cache slot)
    (fun () -> f slot)

(* Copy [len] bytes of a page from [off] into [dst] at [dst_off]: the
   one read primitive, which allocates nothing of its own. The range is
   checked before the page is touched, so a bad call moves no counter,
   and the checked blit cannot raise while the page is pinned. *)
let read_into t page ~off dst ~dst_off ~len =
  let ps = Bess_cache.Cache.page_size t.cache in
  if off < 0 || len < 0 || off > ps - len || dst_off < 0 || dst_off > Bytes.length dst - len
  then invalid_arg "Store.read_into: range out of bounds";
  let slot = pin t page in
  Bytes.blit slot.Bess_cache.Cache.bytes off dst dst_off len;
  Bess_cache.Cache.unpin t.cache slot

(* A fresh copy of a whole page, for callers that keep it: the wire
   reply of a remote page fetch, tests and benchmarks. *)
let read_page t page =
  let ps = Bess_cache.Cache.page_size t.cache in
  let b = Bytes.create ps in
  read_into t page ~off:0 b ~dst_off:0 ~len:ps;
  b

(* Allocate a disk segment whose pages read as zeros: clients fabricate
   fresh segments locally assuming all-zero authoritative content, so
   recycled pages must not leak a previous tenant's bytes. A recycled
   page may still be resident in the cache, so its frame is zeroed too
   (in place: its dirty bit and the counters stay as they were). *)
let alloc_segment t ~area ~npages =
  match Bess_storage.Area_set.alloc_in t.areas ~area_id:area ~npages with
  | None -> None
  | Some (addr : Bess_storage.Seg_addr.t) ->
      let a = Bess_storage.Area_set.find t.areas area in
      let zeros = Bytes.make (Bess_storage.Area.page_size a) '\000' in
      for i = 0 to npages - 1 do
        Bess_storage.Area.write_page a (addr.first_page + i) zeros;
        match Bess_cache.Cache.find_slot t.cache { Page_id.area; page = addr.first_page + i } with
        | Some slot -> Bytes.fill slot.Bess_cache.Cache.bytes 0 (Bytes.length zeros) '\000'
        | None -> ()
      done;
      Some addr

(* Read several contiguous pages of one area (segment fetch). *)
let read_segment t (seg : Bess_storage.Seg_addr.t) =
  List.init seg.npages (fun i ->
      read_page t { Page_id.area = seg.area; page = seg.first_page + i })

(* Log one physical update and apply it to the cached page.
   Returns the record's LSN. *)
let apply_update t ~txn ~prev_lsn (page : Page_id.t) ~offset ~before ~after =
  if Bytes.length before <> Bytes.length after then
    invalid_arg "Store.apply_update: image length mismatch";
  let lsn =
    Bess_wal.Log.append t.log
      { prev_lsn; body = Update { txn; page; offset; before; after } }
  in
  with_page t page (fun slot ->
      Bytes.blit after 0 slot.Bess_cache.Cache.bytes offset (Bytes.length after);
      Bess_cache.Cache.mark_dirty_at t.cache slot ~lsn);
  Bess_util.Stats.bump t.c_updates;
  (* The numerator's baseline: bytes the application asked to change,
     before logging and flushing amplify them. *)
  Bess_util.Stats.bump_by t.c_logical_bytes (Bytes.length after);
  lsn

(* Append COMMIT and register its durability ticket with the group-commit
   scheduler; the caller acknowledges the client only after awaiting the
   ticket. END is appended immediately: its LSN is above the commit's, so
   it can never be durable without the commit record (and recovery
   re-appends END for winners regardless). *)
let log_commit_begin t ~txn ~prev_lsn =
  let lsn = Bess_wal.Log.append t.log { prev_lsn; body = Commit { txn } } in
  let ticket = Bess_wal.Group_commit.commit_lsn t.gc ~lsn in
  ignore (Bess_wal.Log.append t.log { prev_lsn = lsn; body = End { txn } });
  (lsn, ticket)

let log_commit t ~txn ~prev_lsn =
  let lsn, ticket = log_commit_begin t ~txn ~prev_lsn in
  Bess_wal.Group_commit.await t.gc ticket;
  lsn

(* PREPARE's vote is a synchronous acknowledgement, so the ticket is
   awaited in place — under a grouping policy the resulting force still
   releases every other pending committer at once. *)
let log_prepare t ~txn ~prev_lsn ~coordinator =
  let lsn = Bess_wal.Log.append t.log { prev_lsn; body = Prepare { txn; coordinator } } in
  let ticket = Bess_wal.Group_commit.commit_lsn t.gc ~lsn in
  Bess_wal.Group_commit.await t.gc ticket;
  lsn

(* The abstract page interface ARIES recovery and rollback drive. During
   recovery the cache is cold, so this reads/writes through it normally:
   one pin per write, however many images the write copies. *)
let page_io t : Bess_wal.Recovery.page_io =
  {
    page_lsn = Bess_cache.Cache.page_lsn t.cache;
    write =
      (fun page apply ->
        with_page t page (fun slot ->
            apply (fun ~lsn ~offset src pos len ->
                Bytes.blit src pos slot.Bess_cache.Cache.bytes offset len;
                Bess_cache.Cache.mark_dirty_at t.cache slot ~lsn)));
  }

(* Roll back one transaction in place (used by the open-server in-place
   update path). *)
let rollback t ~txn ~last_lsn =
  let n = Bess_wal.Recovery.rollback_txn t.log (page_io t) ~txn ~last_lsn in
  Bess_util.Stats.add t.stats "store.undos" n;
  n

(* Fuzzy checkpoint: record the transaction table (with each entry's
   status, so prepared transactions survive a restart in doubt) and the
   dirty-page table with each page's recovery LSN. *)
let checkpoint t ~txns =
  ignore (Bess_wal.Log.append t.log { prev_lsn = 0; body = Begin_checkpoint });
  let dirty = ref [] in
  Bess_cache.Cache.iter_resident t.cache (fun page slot ->
      if slot.Bess_cache.Cache.dirty then
        dirty := (page, slot.rec_lsn) :: !dirty);
  let lsn =
    Bess_wal.Log.append t.log { prev_lsn = 0; body = End_checkpoint { txns; dirty = !dirty } }
  in
  Bess_wal.Log.flush t.log ~lsn ();
  (* The checkpoint force made any pending committers durable as well. *)
  Bess_wal.Group_commit.release_durable t.gc;
  t.ckpt_bytes <- Bess_wal.Log.size_bytes t.log;
  Bess_util.Stats.incr t.stats "store.checkpoints"

(* Crash simulation: throw away all volatile state (cache contents, and
   with them the page LSNs) and the unforced log tail. *)
let crash t =
  (* The black box records the pre-crash state: spans, fault firings and
     gauges as they stood when the failure hit (no-op while disarmed). *)
  ignore (Bess_obs.Flightrec.dump ~reason:"crash" ());
  (* Pending durability tickets die with the unforced tail: those commits
     were never acknowledged, and recovery rolls them back. *)
  Bess_wal.Group_commit.reset t.gc;
  Bess_wal.Log.crash t.log ();
  (* Discard everything resident without writeback. *)
  let resident = ref [] in
  Bess_cache.Cache.iter_resident t.cache (fun page _ -> resident := page :: !resident);
  List.iter (fun p -> Bess_cache.Cache.discard t.cache p) !resident;
  Bess_util.Stats.incr t.stats "store.crashes"

(* ARIES restart. *)
let recover t =
  let outcome = Bess_wal.Recovery.recover t.log (page_io t) in
  Bess_util.Stats.incr t.stats "store.recoveries";
  (* Post-recovery dump: what the restart did (redo/undo counts land in
     the snapshot section) and where the system stands now. *)
  ignore (Bess_obs.Flightrec.dump ~reason:"recovery" ());
  outcome

(* Flush everything (orderly shutdown). *)
let flush_all t =
  Bess_wal.Log.flush t.log ();
  Bess_wal.Group_commit.release_durable t.gc;
  Bess_cache.Cache.flush_all t.cache;
  Bess_storage.Area_set.sync t.areas
