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
module Int_tbl = Bess_util.Int_tbl

(* The transaction table during the scan, which looks a transaction up
   for nearly every record. A stdlib table allocates a fresh binding per
   insertion; this one is open addressing with linear probing over flat
   arrays (keys >= 0; -1 marks a free slot) and allocates only to
   grow. *)
module Txn_tbl = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

  let create () = { keys = Array.make 64 (-1); vals = Array.make 64 0; size = 0 }
  let home t k = Int_tbl.mix k land (Array.length t.keys - 1)

  (* The slot holding [k], else the free slot that ends its probe. *)
  let rec probe t k i =
    let k' = t.keys.(i) in
    if k' = k || k' < 0 then i else probe t k ((i + 1) land (Array.length t.keys - 1))

  (* The slot holding [k], or -1. *)
  let find t k =
    let i = probe t k (home t k) in
    if t.keys.(i) = k then i else -1

  let place t k v =
    let i = probe t k (home t k) in
    t.keys.(i) <- k;
    t.vals.(i) <- v

  (* Bind [k], which is absent, to [v]; at most half the slots fill. *)
  let add t k v =
    if 2 * (t.size + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      let n = 2 * Array.length keys in
      t.keys <- Array.make n (-1);
      t.vals <- Array.make n 0;
      Array.iteri (fun i k -> if k >= 0 then place t k vals.(i)) keys
    end;
    place t k v;
    t.size <- t.size + 1

  (* Backward-shift deletion: each later binding of the probe run moves
     into the hole if its home slot allows, so no run is ever cut by a
     stale free slot. Top-level, so that a call allocates no closure. *)
  let rec shift t hole j =
    let m = Array.length t.keys - 1 in
    let j = (j + 1) land m in
    let kj = t.keys.(j) in
    if kj < 0 then t.keys.(hole) <- -1
    else if (j - home t kj) land m >= (j - hole) land m then begin
      t.keys.(hole) <- kj;
      t.vals.(hole) <- t.vals.(j);
      shift t j j
    end
    else shift t hole j

  let remove t k =
    let i = find t k in
    if i >= 0 then begin
      shift t i i;
      t.size <- t.size - 1
    end
end

(* The transaction table binds a txn to its status and last LSN, packed. *)
let pack status last =
  (last lsl 2) lor match status with Running -> 0 | Committed -> 1 | Prepared -> 2

let status_of v = match v land 3 with 0 -> Running | 1 -> Committed | _ -> Prepared

let set_txn (att : Txn_tbl.t) txn status last =
  match Txn_tbl.find att txn with
  | -1 -> Txn_tbl.add att txn (pack status last)
  | i -> att.vals.(i) <- pack status last

(* The live transactions, as [(txn, status, last LSN)] by txn. *)
let live_txns (att : Txn_tbl.t) =
  let live = ref [] in
  Array.iteri
    (fun i txn ->
      if txn >= 0 then
        let v = att.vals.(i) in
        live := (txn, status_of v, v lsr 2) :: !live)
    att.keys;
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !live

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
  live : (int * txn_status * int) list; (* txn, status, last_lsn; by txn *)
  pages : dirty list; (* pages with redo work, by first redo LSN *)
}

(* One pass over the log's frames from the checkpoint the master record
   names: each record's kind, transaction and page are read in place.
   Nothing is decoded, and nothing allocated per record but the tables'
   and the LSN arrays' growth. *)
let analyse log =
  let att = Txn_tbl.create () in
  let dpt = Int_tbl.create 64 in
  let pages = ref [] in
  let add_dirty p rec_lsn =
    let d = { page = p; rec_lsn; lsns = [||]; n = 0 } in
    Int_tbl.add dpt (Bess_cache.Page_id.to_key p) d;
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
            List.iter (fun (txn, last, status) -> set_txn att txn status last) e.txns;
            List.iter
              (fun (p, rec_lsn) ->
                if not (Int_tbl.mem dpt (Bess_cache.Page_id.to_key p)) then
                  ignore (add_dirty p rec_lsn))
              e.dirty;
            (* A dirty page whose recovery LSN lies behind the checkpoint
               has redo work there: collect it first, so each page's LSNs
               stay in log order. *)
            let low = Int_tbl.fold (fun _ d acc -> Stdlib.min acc d.rec_lsn) dpt start in
            Log.iter_frames ~from:low ~until:start log (fun lsn buf off ->
                match Frame.kind buf off with
                | Update | Clr -> (
                    match Int_tbl.find dpt (Frame.page_key buf off) with
                    | d -> note d lsn
                    | exception Not_found -> ())
                | _ -> ());
            start
        | _ -> invalid_arg "Recovery.analyse: master record is not an End_checkpoint")
  in
  Log.iter_frames ~from:scan_from log (fun lsn buf off ->
      match Frame.kind buf off with
      | Update | Clr ->
          set_txn att (Frame.txn buf off) Running lsn;
          let d =
            match Int_tbl.find dpt (Frame.page_key buf off) with
            | d -> d
            | exception Not_found -> add_dirty (Frame.page buf off) lsn
          in
          note d lsn
      | Prepare -> set_txn att (Frame.txn buf off) Prepared lsn
      | Commit -> set_txn att (Frame.txn buf off) Committed lsn
      | Abort -> (
          (* An abort record alone does not finish the rollback; keep the
             transaction as a loser so undo completes it. *)
          let txn = Frame.txn buf off in
          match Txn_tbl.find att txn with
          | -1 -> Txn_tbl.add att txn (pack Running lsn)
          | i -> att.vals.(i) <- att.vals.(i) land lnot 3)
      | End -> Txn_tbl.remove att (Frame.txn buf off)
      | Decision (* coordinator-log record; carries no page or txn state *)
      | Begin_checkpoint | End_checkpoint -> ());
  { live = live_txns att; pages = List.rev !pages }

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
      let first = ref 0 in
      while !first < d.n && d.lsns.(!first) <= page_lsn do
        incr first
      done;
      if !first < d.n then
        io.write d.page (fun blit ->
            for i = !first to d.n - 1 do
              let lsn = d.lsns.(i) in
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
