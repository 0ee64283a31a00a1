(* ARIES recovery: analysis, redo, undo (section 3: "recovery is based on
   an ARIES-like [21] write-ahead log protocol").

   Recovery is written against an abstract page store so it can drive both
   the real cache/storage stack and the tiny fake stores used in tests.
   Pages carry an LSN; redo reapplies a record only when the page LSN is
   older ("repeating history"); undo rolls back loser transactions writing
   compensation records whose undo-next pointers make rollback idempotent
   across repeated crashes. Transactions in the prepared state survive
   recovery as in-doubt -- their fate belongs to the 2PC coordinator. *)

type blit = lsn:int -> offset:int -> Bytes.t -> int -> int -> unit

type page_io = {
  page_lsn : Log_record.page_id -> int;
  write : Log_record.page_id -> (blit -> unit) -> unit;
      (* pins the page once and runs the function with a blit into it *)
}

type txn_status = Log_record.txn_status = Running | Committed | Prepared

type outcome = {
  winners : int list; (* committed, made durable *)
  losers : int list; (* rolled back *)
  in_doubt : (int * int) list; (* prepared, awaiting coordinator: txn, last_lsn *)
  redone : int;
  undone : int;
}

(* ---- Analysis ----------------------------------------------------------- *)

module Frame = Log_record.Frame
module Int_map = Bess_util.Int_map

(* The transaction table binds a txn to its status and last LSN, packed
   into one non-negative int, in a flat map that allocates only to grow:
   the scan looks a transaction up for nearly every record. *)
let pack status last =
  (last lsl 2) lor match status with Running -> 0 | Committed -> 1 | Prepared -> 2

let status_of v = match v land 3 with 0 -> Running | 1 -> Committed | _ -> Prepared

(* The live transactions, as [(txn, status, last LSN)] by txn. *)
let live_txns att =
  List.sort
    (fun (a, _, _) (b, _, _) -> Int.compare a b)
    (Int_map.fold (fun txn v acc -> (txn, status_of v, v lsr 2) :: acc) att [])

(* A dirty-page-table entry: the page, its recovery LSN, and its redo
   work, the Update/CLR records at or after that LSN. The first pass
   counts them; the second writes their LSNs, in log order, into
   [lsns.(next - count) ..] of the one array all pages share. *)
type dirty = {
  page : Log_record.page_id;
  rec_lsn : int;
  mutable count : int;
  mutable next : int;
}

type analysis = {
  live : (int * txn_status * int) list; (* txn, status, last_lsn; by txn *)
  pages : dirty list; (* pages with redo work, by first redo LSN *)
  lsns : int array; (* after the second pass, page [d]'s LSNs end at [d.next] *)
}

(* Two passes over the log's frames, from the checkpoint the master
   record names (from the earliest recovery LSN its dirty-page table
   holds, for the pages in it). The first keeps the transaction table
   and counts each dirty page's redo records; the second, reading only
   each record's kind and page, lays their LSNs out in one exactly
   sized array. Nothing is decoded, and nothing allocated per record
   but the tables' growth. *)
let analyse log =
  let att = Int_map.create 32 in
  let set_txn txn status last = Int_map.replace att txn (pack status last) in
  (* Page key -> index into [dirty]. *)
  let dpt = Int_map.create 64 in
  let dirty = ref [||] and n_dirty = ref 0 in
  let pages = ref [] in
  let add_dirty key p rec_lsn =
    let d = { page = p; rec_lsn; count = 0; next = 0 } in
    if !n_dirty = Array.length !dirty then begin
      let a = Array.make (Stdlib.max 16 (2 * !n_dirty)) d in
      Array.blit !dirty 0 a 0 !n_dirty;
      dirty := a
    end;
    !dirty.(!n_dirty) <- d;
    Int_map.replace dpt key !n_dirty;
    incr n_dirty;
    d
  in
  (* Redo repeats history: every Update/CLR at or after its page's
     recovery LSN. *)
  let count (d : dirty) lsn =
    if lsn >= d.rec_lsn then begin
      if d.count = 0 then pages := d :: !pages;
      d.count <- d.count + 1
    end
  in
  (* Seed the tables from the master record's checkpoint; scanning from
     the log start is always correct, the checkpoint only shortens the
     scan. [low] is where the second pass starts. *)
  let scan_from, low =
    match Log.master log with
    | None -> (1, 1)
    | Some (start, end_lsn) -> (
        match (fst (Log.read log end_lsn)).body with
        | End_checkpoint e ->
            (* Prepared entries come back prepared: their Prepare record
               may lie behind the checkpoint, where the scan never looks. *)
            List.iter (fun (txn, last, status) -> set_txn txn status last) e.txns;
            List.iter
              (fun (p, rec_lsn) ->
                let key = Bess_cache.Page_id.to_key p in
                if not (Int_map.mem dpt key) then ignore (add_dirty key p rec_lsn))
              e.dirty;
            (* A dirty page whose recovery LSN lies behind the checkpoint
               has redo work there: count it first, so each page's LSNs
               stay in log order. *)
            let low = ref start in
            for i = 0 to !n_dirty - 1 do
              low := Stdlib.min !low !dirty.(i).rec_lsn
            done;
            Log.iter_frames ~from:!low ~until:start log (fun lsn buf off ->
                match Frame.kind buf off with
                | Update | Clr -> (
                    match Int_map.find dpt (Frame.page_key buf off) with
                    | -1 -> ()
                    | i -> count !dirty.(i) lsn)
                | _ -> ());
            (start, !low)
        | _ -> invalid_arg "Recovery.analyse: master record is not an End_checkpoint")
  in
  Log.iter_frames ~from:scan_from log (fun lsn buf off ->
      match Frame.kind buf off with
      | Update | Clr ->
          set_txn (Frame.txn buf off) Running lsn;
          let d =
            match Int_map.find dpt (Frame.page_key buf off) with
            | -1 -> add_dirty (Frame.page_key buf off) (Frame.page buf off) lsn
            | i -> !dirty.(i)
          in
          count d lsn
      | Prepare -> set_txn (Frame.txn buf off) Prepared lsn
      | Commit -> set_txn (Frame.txn buf off) Committed lsn
      | Abort -> (
          (* An abort record alone does not finish the rollback; keep the
             transaction as a loser so undo completes it. *)
          let txn = Frame.txn buf off in
          match Int_map.find att txn with
          | -1 -> set_txn txn Running lsn
          | v -> Int_map.replace att txn (v land lnot 3))
      | End -> Int_map.remove att (Frame.txn buf off)
      | Decision (* coordinator-log record; carries no page or txn state *)
      | Begin_checkpoint | End_checkpoint -> ());
  let pages = List.rev !pages in
  let total = List.fold_left (fun n d -> d.next <- n; n + d.count) 0 pages in
  let lsns = Array.make total 0 in
  if total > 0 then
    Log.iter_frames ~from:low log (fun lsn buf off ->
        match Frame.kind buf off with
        | Update | Clr -> (
            match Int_map.find dpt (Frame.page_key buf off) with
            | -1 -> ()
            | i ->
                let d = !dirty.(i) in
                if lsn >= d.rec_lsn then begin
                  lsns.(d.next) <- lsn;
                  d.next <- d.next + 1
                end)
        | _ -> ());
  { live = live_txns att; pages; lsns }

(* ---- Redo ---------------------------------------------------------------- *)

(* Page by page, in order of first appearance: each page's records are
   physical images independent of every other page's, so only the order
   within a page matters, and a page is loaded and written back about
   once however small the cache. A page LSN only rises, so the records
   to repeat are those past the page's LSN when redo reaches it; the page
   is pinned once for all of them, and each image is copied straight
   from the log buffer into it. *)
let redo log io (a : analysis) =
  let redone = ref 0 in
  List.iter
    (fun d ->
      let page_lsn = io.page_lsn d.page in
      let first = ref (d.next - d.count) in
      while !first < d.next && a.lsns.(!first) <= page_lsn do
        incr first
      done;
      if !first < d.next then
        io.write d.page (fun blit ->
            for i = !first to d.next - 1 do
              let lsn = a.lsns.(i) in
              let buf = Log.buffer log and off = Log.frame_offset log lsn in
              blit ~lsn ~offset:(Frame.offset buf off) buf (Frame.redo_pos buf off)
                (Frame.redo_len buf off);
              incr redone
            done))
    a.pages;
  !redone

(* ---- Undo ---------------------------------------------------------------- *)

(* Next undo LSN per loser, as [(lsn, txn)]. LSNs are unique, so the
   largest element names the one record to undo next. *)
module Next = Set.Make (struct
  type t = int * int

  let compare ((a : int), (_ : int)) (b, _) = Int.compare a b
end)

(* Undo a set of loser transactions from their last LSNs, writing CLRs.
   Shared by crash recovery and by normal transaction rollback. *)
let undo_losers log io losers =
  let undone = ref 0 in
  let next =
    ref (List.fold_left (fun s (txn, lsn) -> if lsn > 0 then Next.add (lsn, txn) s else s)
           Next.empty losers)
  in
  let continue_at txn lsn = if lsn <> 0 then next := Next.add (lsn, txn) !next in
  let rec loop () =
    match Next.max_elt_opt !next with
    | None -> ()
    | Some ((lsn, txn) as top) ->
        next := Next.remove top !next;
        let record, _ = Log.read log lsn in
        (match record.body with
        | Update u ->
            assert (u.txn = txn);
            (* Compensate: restore the before image, log a redo-only CLR
               pointing past the record just undone. *)
            let clr : Log_record.t =
              {
                prev_lsn = lsn (* chain CLR after the undone record *);
                body =
                  Clr { txn; page = u.page; offset = u.offset; image = u.before;
                        undo_next = record.prev_lsn };
              }
            in
            let clr_lsn = Log.append log clr in
            io.write u.page (fun blit ->
                blit ~lsn:clr_lsn ~offset:u.offset u.before 0 (Bytes.length u.before));
            incr undone;
            continue_at txn record.prev_lsn
        | Clr c ->
            (* Skip over already-undone work. *)
            continue_at txn c.undo_next
        | Abort _ | Prepare _ | Commit _ -> continue_at txn record.prev_lsn
        | End _ | Decision _ | Begin_checkpoint | End_checkpoint _ -> ());
        loop ()
  in
  loop ();
  (* Write END records for fully rolled-back losers. *)
  List.iter
    (fun (txn, lsn) ->
      if lsn > 0 then ignore (Log.append log { prev_lsn = 0; body = End { txn } }))
    losers;
  !undone

(* Normal-operation rollback of one transaction (used by Txn.abort): undo
   from its last LSN, then log ABORT+END. *)
let rollback_txn log io ~txn ~last_lsn =
  ignore (Log.append log { prev_lsn = last_lsn; body = Abort { txn } });
  undo_losers log io [ (txn, last_lsn) ]

(* ---- Full restart -------------------------------------------------------- *)

(* Restart's appends follow the transaction ids: the winners' End
   records in ascending id, then undo's CLRs, then the losers' End
   records in ascending id. *)
let recover log io =
  let a = analyse log in
  let redone = redo log io a in
  let with_status status =
    List.filter_map (fun (txn, s, last) -> if s = status then Some (txn, last) else None) a.live
  in
  let winners = with_status Committed and losers = with_status Running in
  List.iter
    (fun (txn, last) -> ignore (Log.append log { prev_lsn = last; body = End { txn } }))
    winners;
  let undone = undo_losers log io losers in
  Log.flush log ();
  { winners = List.map fst winners; losers = List.map fst losers;
    in_doubt = with_status Prepared; redone; undone }
