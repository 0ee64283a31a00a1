(* ARIES recovery: analysis, redo, undo (section 3: "recovery is based on
   an ARIES-like [21] write-ahead log protocol").

   Recovery is written against an abstract page store so it can drive both
   the real cache/storage stack and the tiny fake stores used in tests.
   Pages carry an LSN; redo reapplies a record only when the page LSN is
   older ("repeating history"); undo rolls back loser transactions writing
   compensation records whose undo-next pointers make rollback idempotent
   across repeated crashes. Transactions in the prepared state survive
   recovery as in-doubt -- their fate belongs to the 2PC coordinator. *)

type page_io = {
  page_lsn : Log_record.page_id -> int;
  write : Log_record.page_id -> lsn:int -> offset:int -> Bytes.t -> unit;
      (* applies record [lsn]'s image; [lsn] becomes the page LSN *)
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

module Page_tbl = Bess_cache.Page_id.Tbl

(* A dirty-page-table entry, with the redo work analysis finds for it:
   the LSNs, in log order, of the page's Update/CLR records at or after
   its recovery LSN. LSNs, not records, so the tables stay small. *)
type dirty = {
  page : Log_record.page_id;
  rec_lsn : int;
  mutable lsns : int array;
  mutable n : int;
}

type analysis = {
  att : (int, txn_status * int) Hashtbl.t; (* txn -> status, last_lsn *)
  pages : dirty list; (* pages with redo work, by first redo LSN *)
}

let analyse log =
  let att = Hashtbl.create 16 in
  let dpt = Page_tbl.create 64 in
  let pages = ref [] in
  let add_dirty p rec_lsn =
    let d = { page = p; rec_lsn; lsns = [||]; n = 0 } in
    Page_tbl.add dpt p d;
    d
  in
  (* Redo repeats history: every Update/CLR at or after its page's
     recovery LSN. *)
  let note (d : dirty) lsn =
    if lsn >= d.rec_lsn then begin
      if d.n = 0 then pages := d :: !pages;
      if d.n = Array.length d.lsns then begin
        let a = Array.make (Stdlib.max 4 (2 * d.n)) 0 in
        Array.blit d.lsns 0 a 0 d.n;
        d.lsns <- a
      end;
      d.lsns.(d.n) <- lsn;
      d.n <- d.n + 1
    end
  in
  (* Seed the tables from the master record's checkpoint; scanning from
     the log start is always correct, the checkpoint only shortens the
     scan. *)
  let scan_from =
    match Log.master log with
    | None -> 1
    | Some (start, end_lsn) -> (
        match (fst (Log.read log end_lsn)).body with
        | End_checkpoint e ->
            (* Prepared entries come back prepared: their Prepare record
               may lie behind the checkpoint, where the scan never looks. *)
            List.iter (fun (txn, last, status) -> Hashtbl.replace att txn (status, last)) e.txns;
            List.iter
              (fun (p, rec_lsn) -> if not (Page_tbl.mem dpt p) then ignore (add_dirty p rec_lsn))
              e.dirty;
            (* A dirty page whose recovery LSN lies behind the checkpoint
               has redo work there: collect it first, so each page's LSNs
               stay in log order. *)
            let low = Page_tbl.fold (fun _ d acc -> Stdlib.min acc d.rec_lsn) dpt start in
            let rec behind lsn =
              if lsn < start then begin
                let r, next = Log.read log lsn in
                (match r.body with
                | Update { page; _ } | Clr { page; _ } ->
                    Option.iter (fun d -> note d lsn) (Page_tbl.find_opt dpt page)
                | _ -> ());
                behind next
              end
            in
            behind low;
            start
        | _ -> invalid_arg "Recovery.analyse: master record is not an End_checkpoint")
  in
  Log.iter ~from:scan_from log (fun lsn (r : Log_record.t) ->
      let touch_page (p : Log_record.page_id) =
        note (match Page_tbl.find_opt dpt p with Some d -> d | None -> add_dirty p lsn) lsn
      in
      match r.body with
      | Update u ->
          Hashtbl.replace att u.txn (Running, lsn);
          touch_page u.page
      | Clr c ->
          Hashtbl.replace att c.txn (Running, lsn);
          touch_page c.page
      | Prepare p ->
          Hashtbl.replace att p.txn (Prepared, lsn)
      | Commit c -> Hashtbl.replace att c.txn (Committed, lsn)
      | Abort a ->
          (* An abort record alone does not finish the rollback; keep the
             transaction as a loser so undo completes it. *)
          let last = match Hashtbl.find_opt att a.txn with Some (_, l) -> l | None -> lsn in
          Hashtbl.replace att a.txn (Running, last)
      | End e -> Hashtbl.remove att e.txn
      | Decision _ (* coordinator-log record; carries no page or txn state *)
      | Begin_checkpoint | End_checkpoint _ -> ());
  { att; pages = List.rev !pages }

(* ---- Redo ---------------------------------------------------------------- *)

(* Page by page, in order of first appearance: each page's records are
   physical images independent of every other page's, so only the order
   within a page matters, and a page is loaded and written back about
   once however small the cache. *)
let redo log io (a : analysis) =
  let redone = ref 0 in
  List.iter
    (fun d ->
      for i = 0 to d.n - 1 do
        let lsn = d.lsns.(i) in
        if io.page_lsn d.page < lsn then begin
          (match (fst (Log.read log lsn)).body with
          | Update u -> io.write d.page ~lsn ~offset:u.offset u.after
          | Clr c -> io.write d.page ~lsn ~offset:c.offset c.image
          | _ -> assert false);
          incr redone
        end
      done)
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
            io.write u.page ~lsn:clr_lsn ~offset:u.offset u.before;
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

let recover log io =
  let a = analyse log in
  let redone = redo log io a in
  let winners = ref [] and losers = ref [] and in_doubt = ref [] in
  Hashtbl.iter
    (fun txn (status, last) ->
      match status with
      | Committed ->
          winners := txn :: !winners;
          ignore (Log.append log { prev_lsn = last; body = End { txn } })
      | Prepared -> in_doubt := (txn, last) :: !in_doubt
      | Running -> losers := (txn, last) :: !losers)
    a.att;
  let undone = undo_losers log io !losers in
  Log.flush log ();
  {
    winners = List.sort compare !winners;
    losers = List.sort compare (List.map fst !losers);
    in_doubt = List.sort compare !in_doubt;
    redone;
    undone;
  }
