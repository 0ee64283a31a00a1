(* bess_wal: record codec, log append/iterate, torn tails, ARIES
   recovery (analysis/redo/undo), checkpoints, idempotence. *)

module Log = Bess_wal.Log
module Log_record = Bess_wal.Log_record
module Recovery = Bess_wal.Recovery
module Gc = Bess_wal.Group_commit

let page a p : Log_record.page_id = { area = a; page = p }

(* A trivial page store: 8 pages of 64 bytes, volatile LSN table. *)
type fake_store = { pages : Bytes.t array; lsns : (Log_record.page_id, int) Hashtbl.t }

let fake_store () = { pages = Array.init 8 (fun _ -> Bytes.make 64 '\000'); lsns = Hashtbl.create 8 }

let io_of (s : fake_store) : Recovery.page_io =
  {
    page_lsn = (fun p -> Option.value ~default:0 (Hashtbl.find_opt s.lsns p));
    write =
      (fun p apply ->
        apply (fun ~lsn ~offset src pos len ->
            Bytes.blit src pos s.pages.(p.page) offset len;
            Hashtbl.replace s.lsns p lsn));
  }

(* Write one record's image, in one page write. *)
let write_image (io : Recovery.page_io) p ~lsn ~offset image =
  io.write p (fun blit -> blit ~lsn ~offset image 0 (Bytes.length image))

(* Log an update and apply it to the store (normal forward processing). *)
let update log (s : fake_store) ~txn ~prev ~pg ~offset ~after =
  let before = Bytes.sub s.pages.(pg) offset (String.length after) in
  let lsn =
    Log.append log
      { prev_lsn = prev;
        body = Update { txn; page = page 0 pg; offset; before; after = Bytes.of_string after } }
  in
  Bytes.blit_string after 0 s.pages.(pg) offset (String.length after);
  Hashtbl.replace s.lsns (page 0 pg) lsn;
  lsn

(* The log-order restart recovery forms the reference for the three-pass
   one: a pre-scan for the last checkpoint, a decoding analysis pass, redo
   in log order over the whole range from the dirty-page low-water mark,
   and undo picking the largest next LSN by a fold over every loser. *)
module Ref = struct
  type analysis = {
    att : (int, Recovery.txn_status * int) Hashtbl.t;
    dpt : (Log_record.page_id, int) Hashtbl.t;
    redo_from : int;
  }

  let analyse log =
    let att = Hashtbl.create 16 in
    let dpt = Hashtbl.create 64 in
    let ckpt_start = ref 0 in
    let ckpt_record = ref None in
    Log.iter log (fun lsn (r : Log_record.t) ->
        match r.body with
        | Log_record.Begin_checkpoint -> ckpt_start := lsn
        | Log_record.End_checkpoint e -> ckpt_record := Some (!ckpt_start, e.txns, e.dirty)
        | _ -> ());
    let scan_from =
      match !ckpt_record with
      | Some (start, txns, dirty) ->
          List.iter (fun (txn, last, status) -> Hashtbl.replace att txn (status, last)) txns;
          List.iter
            (fun (p, rec_lsn) -> if not (Hashtbl.mem dpt p) then Hashtbl.add dpt p rec_lsn)
            dirty;
          start
      | None -> 1
    in
    Log.iter ~from:scan_from log (fun lsn (r : Log_record.t) ->
        let touch_page (p : Log_record.page_id) =
          if not (Hashtbl.mem dpt p) then Hashtbl.add dpt p lsn
        in
        match r.body with
        | Update u ->
            Hashtbl.replace att u.txn (Recovery.Running, lsn);
            touch_page u.page
        | Clr c ->
            Hashtbl.replace att c.txn (Recovery.Running, lsn);
            touch_page c.page
        | Prepare p -> Hashtbl.replace att p.txn (Recovery.Prepared, lsn)
        | Commit c -> Hashtbl.replace att c.txn (Recovery.Committed, lsn)
        | Abort a ->
            let last = match Hashtbl.find_opt att a.txn with Some (_, l) -> l | None -> lsn in
            Hashtbl.replace att a.txn (Recovery.Running, last)
        | End e -> Hashtbl.remove att e.txn
        | Decision _ | Begin_checkpoint | End_checkpoint _ -> ());
    let redo_from = Hashtbl.fold (fun _ rec_lsn acc -> Stdlib.min acc rec_lsn) dpt max_int in
    (* No dirty page: redo starts at the end of the log. *)
    { att; dpt; redo_from = (if redo_from = max_int then Log.size_bytes log + 1 else redo_from) }

  let redo log (io : Recovery.page_io) a =
    let redone = ref 0 in
    Log.iter ~from:a.redo_from log (fun lsn (r : Log_record.t) ->
        let apply (p : Log_record.page_id) offset image =
          match Hashtbl.find_opt a.dpt p with
          | Some rec_lsn when lsn >= rec_lsn ->
              if io.page_lsn p < lsn then begin
                write_image io p ~lsn ~offset image;
                incr redone
              end
          | _ -> ()
        in
        match r.body with
        | Update u -> apply u.page u.offset u.after
        | Clr c -> apply c.page c.offset c.image
        | _ -> ());
    !redone

  let undo_losers log (io : Recovery.page_io) losers =
    let undone = ref 0 in
    let next = Hashtbl.create 8 in
    List.iter (fun (txn, lsn) -> if lsn > 0 then Hashtbl.replace next txn lsn) losers;
    let pick_max () =
      Hashtbl.fold
        (fun txn lsn acc ->
          match acc with Some (_, best) when best >= lsn -> acc | _ -> Some (txn, lsn))
        next None
    in
    let rec loop () =
      match pick_max () with
      | None -> ()
      | Some (txn, lsn) ->
          let record, _ = Log.read log lsn in
          (match record.body with
          | Update u ->
              let clr_lsn =
                Log.append log
                  { prev_lsn = lsn;
                    body = Clr { txn; page = u.page; offset = u.offset; image = u.before;
                                 undo_next = record.prev_lsn } }
              in
              write_image io u.page ~lsn:clr_lsn ~offset:u.offset u.before;
              incr undone;
              if record.prev_lsn = 0 then Hashtbl.remove next txn
              else Hashtbl.replace next txn record.prev_lsn
          | Clr c ->
              if c.undo_next = 0 then Hashtbl.remove next txn
              else Hashtbl.replace next txn c.undo_next
          | Abort _ | Prepare _ | Commit _ ->
              if record.prev_lsn = 0 then Hashtbl.remove next txn
              else Hashtbl.replace next txn record.prev_lsn
          | End _ | Decision _ | Begin_checkpoint | End_checkpoint _ -> Hashtbl.remove next txn);
          loop ()
    in
    loop ();
    List.iter
      (fun (txn, lsn) ->
        if lsn > 0 then ignore (Log.append log { prev_lsn = 0; body = End { txn } }))
      losers;
    !undone

  let recover log io : Recovery.outcome =
    let a = analyse log in
    let redone = redo log io a in
    let winners = ref [] and losers = ref [] and in_doubt = ref [] in
    (* Ascending id: winners' End records, then undo (CLRs, then the
       losers' End records in the order given). *)
    List.iter
      (fun (txn, (status, last)) ->
        match (status : Recovery.txn_status) with
        | Committed ->
            winners := txn :: !winners;
            ignore (Log.append log { prev_lsn = last; body = End { txn } })
        | Prepared -> in_doubt := (txn, last) :: !in_doubt
        | Running -> losers := (txn, last) :: !losers)
      (List.sort compare (List.of_seq (Hashtbl.to_seq a.att)));
    let undone = undo_losers log io (List.rev !losers) in
    Log.flush log ();
    {
      winners = List.rev !winners;
      losers = List.rev_map fst !losers;
      in_doubt = List.rev !in_doubt;
      redone;
      undone;
    }
end

let test_record_codec_roundtrip () =
  let records : Log_record.t list =
    [
      { prev_lsn = 0;
        body = Update { txn = 7; page = page 1 2; offset = 16; before = Bytes.of_string "aa";
                        after = Bytes.of_string "bb" } };
      { prev_lsn = 5; body = Clr { txn = 7; page = page 1 2; offset = 16;
                                   image = Bytes.of_string "aa"; undo_next = 3 } };
      { prev_lsn = 9; body = Commit { txn = 7 } };
      { prev_lsn = 9; body = Abort { txn = 8 } };
      { prev_lsn = 9; body = End { txn = 7 } };
      { prev_lsn = 2; body = Prepare { txn = 4; coordinator = 1 } };
      { prev_lsn = 0; body = Begin_checkpoint };
      { prev_lsn = 0;
        body =
          End_checkpoint
            { txns = [ (1, 10, Log_record.Running); (2, 20, Log_record.Prepared) ];
              dirty = [ (page 0 3, 5) ] } };
    ]
  in
  List.iter
    (fun r ->
      let img = Log_record.encode r in
      let r', next = Log_record.decode img 0 in
      Alcotest.(check bool) "roundtrip" true (r = r');
      Alcotest.(check int) "consumed all" (Bytes.length img) next)
    records

let test_append_iterate () =
  let log = Log.create () in
  let l1 = Log.append log { prev_lsn = 0; body = Commit { txn = 1 } } in
  let l2 = Log.append log { prev_lsn = 0; body = Commit { txn = 2 } } in
  Alcotest.(check bool) "lsns increase" true (l2 > l1);
  let seen = ref [] in
  Log.iter log (fun lsn r -> seen := (lsn, r) :: !seen);
  Alcotest.(check int) "two records" 2 (List.length !seen);
  let r1, _ = Log.read log l1 in
  Alcotest.(check bool) "read back" true (r1.body = Commit { txn = 1 })

let test_torn_tail_discarded () =
  let log = Log.create () in
  (* The txn id's bytes are all non-zero so a torn (zeroed) suffix is
     guaranteed to change the payload and fail the CRC. *)
  ignore (Log.append log { prev_lsn = 0; body = Commit { txn = 0x0A0B0C0D } });
  Log.flush log ();
  ignore (Log.append log { prev_lsn = 0; body = Commit { txn = 2 } });
  (* Crash with 3 bytes of the flushed portion torn off: the scan stops
     at the first corrupt record. *)
  Log.crash log ~tear:3 ();
  let count = ref 0 in
  Log.iter log (fun _ _ -> incr count);
  Alcotest.(check int) "torn record dropped" 0 !count

let test_recovery_redo_committed () =
  let log = Log.create () in
  let durable = fake_store () in
  (* Transaction commits, but its page writes never reach 'disk'. *)
  let scratch = fake_store () in
  let l1 = update log scratch ~txn:1 ~prev:0 ~pg:2 ~offset:0 ~after:"HELLO" in
  let l2 = Log.append log { prev_lsn = l1; body = Commit { txn = 1 } } in
  Log.flush log ~lsn:l2 ();
  ignore (Log.append log { prev_lsn = l2; body = End { txn = 1 } });
  let outcome = Recovery.recover log (io_of durable) in
  Alcotest.(check int) "redone" 1 outcome.redone;
  Alcotest.(check string) "page recovered" "HELLO" (Bytes.sub_string durable.pages.(2) 0 5)

let test_recovery_undo_loser () =
  let log = Log.create () in
  let s = fake_store () in
  Bytes.blit_string "OLD." 0 s.pages.(1) 0 4;
  (* Uncommitted transaction whose update DID reach disk (steal). *)
  ignore (update log s ~txn:9 ~prev:0 ~pg:1 ~offset:0 ~after:"NEW.");
  Log.flush log ();
  Hashtbl.reset s.lsns (* crash loses volatile lsn table *);
  let outcome = Recovery.recover log (io_of s) in
  Alcotest.(check (list int)) "loser rolled back" [ 9 ] outcome.losers;
  Alcotest.(check string) "before-image restored" "OLD." (Bytes.sub_string s.pages.(1) 0 4)

let test_recovery_idempotent () =
  let log = Log.create () in
  let s = fake_store () in
  let l1 = update log s ~txn:1 ~prev:0 ~pg:0 ~offset:8 ~after:"alpha" in
  ignore (update log s ~txn:2 ~prev:0 ~pg:3 ~offset:0 ~after:"beta" (* loser *));
  let lc = Log.append log { prev_lsn = l1; body = Commit { txn = 1 } } in
  Log.flush log ~lsn:lc ();
  Hashtbl.reset s.lsns;
  let o1 = Recovery.recover log (io_of s) in
  let snapshot = Array.map Bytes.copy s.pages in
  (* Crash again immediately: recovering a second time must be a no-op
     on page contents (CLRs make undo idempotent). *)
  Hashtbl.reset s.lsns;
  let o2 = Recovery.recover log (io_of s) in
  Array.iteri
    (fun i p -> Alcotest.(check bytes) (Printf.sprintf "page %d stable" i) snapshot.(i) p)
    s.pages;
  Alcotest.(check (list int)) "no losers second time" [] o2.losers;
  ignore o1

let test_recovery_in_doubt () =
  let log = Log.create () in
  let s = fake_store () in
  let l1 = update log s ~txn:5 ~prev:0 ~pg:4 ~offset:0 ~after:"2PCDATA" in
  let lp = Log.append log { prev_lsn = l1; body = Prepare { txn = 5; coordinator = 2 } } in
  Log.flush log ~lsn:lp ();
  Hashtbl.reset s.lsns;
  let outcome = Recovery.recover log (io_of s) in
  Alcotest.(check (list int)) "prepared txn in doubt" [ 5 ] (List.map fst outcome.in_doubt);
  Alcotest.(check (list int)) "not a loser" [] outcome.losers;
  (* Its update must survive (it may yet commit). *)
  Alcotest.(check string) "prepared data retained" "2PCDATA" (Bytes.sub_string s.pages.(4) 0 7)

let test_checkpoint_shortens_analysis () =
  let log = Log.create () in
  let s = fake_store () in
  let prev = ref 0 in
  for i = 1 to 20 do
    prev := update log s ~txn:1 ~prev:!prev ~pg:(i mod 4) ~offset:0 ~after:"XX"
  done;
  let lc = Log.append log { prev_lsn = !prev; body = Commit { txn = 1 } } in
  ignore (Log.append log { prev_lsn = lc; body = End { txn = 1 } });
  let lb = Log.append log { prev_lsn = 0; body = Begin_checkpoint } in
  let le = Log.append log { prev_lsn = 0; body = End_checkpoint { txns = []; dirty = [] } } in
  Log.flush log ();
  Alcotest.(check (option (pair int int))) "master names the checkpoint" (Some (lb, le))
    (Log.master log);
  Hashtbl.reset s.lsns;
  let outcome = Recovery.recover log (io_of s) in
  (* Everything was clean at the checkpoint: nothing to redo or undo. With
     the page-LSN table lost, an analysis started at LSN 1 would have
     found the 20 updates and redone them: it starts at the checkpoint. *)
  Alcotest.(check int) "no redo" 0 outcome.redone;
  Alcotest.(check int) "no undo" 0 outcome.undone

let test_rollback_in_place () =
  let log = Log.create () in
  let s = fake_store () in
  Bytes.blit_string "one." 0 s.pages.(6) 0 4;
  let l1 = update log s ~txn:3 ~prev:0 ~pg:6 ~offset:0 ~after:"two." in
  let l2 = update log s ~txn:3 ~prev:l1 ~pg:6 ~offset:4 ~after:"MORE" in
  let undone = Recovery.rollback_txn log (io_of s) ~txn:3 ~last_lsn:l2 in
  Alcotest.(check int) "two updates undone" 2 undone;
  Alcotest.(check string) "restored" "one." (Bytes.sub_string s.pages.(6) 0 4)

let test_file_backed_log_reopen () =
  let path = Filename.temp_file "bess_wal" ".log" in
  let log = Log.create ~path () in
  let l1 = Log.append log { prev_lsn = 0; body = Commit { txn = 11 } } in
  Log.flush log ~lsn:l1 ();
  Log.close log;
  let log2 = Log.open_existing path in
  let seen = ref [] in
  Log.iter log2 (fun _ r -> seen := r :: !seen);
  Alcotest.(check int) "record survives process restart" 1 (List.length !seen);
  Log.close log2;
  Sys.remove path

(* Regression: open_existing must truncate the torn suffix off the *file*,
   not just drop it from the in-memory tail. If the torn bytes survive on
   disk, an append after reopen that is shorter than the tear leaves stale
   fragments beyond the new tail -- and a second reopen can resurrect them
   as phantom records. Constructed worst case: the torn record's payload
   embeds a complete, CRC-valid commit record, and the post-reopen append
   ends exactly where that embedded record begins. *)
let test_reopen_truncates_file () =
  let find_sub hay needle =
    let nh = Bytes.length hay and nn = Bytes.length needle in
    let rec go i =
      if i + nn > nh then -1
      else if Bytes.sub hay i nn = needle then i
      else go (i + 1)
    in
    go 0
  in
  let path = Filename.temp_file "bess_wal_torn" ".log" in
  let log = Log.create ~path () in
  ignore (Log.append log { prev_lsn = 0; body = Commit { txn = 0x0A0B0C0D } });
  let phantom = Log_record.encode { prev_lsn = 0; body = Commit { txn = 0x0B0E55 } } in
  let torn : Log_record.t =
    { prev_lsn = 0;
      body = Update { txn = 2; page = page 0 1; offset = 0; before = Bytes.create 0;
                      after = Bytes.cat phantom (Bytes.make 32 'Z') } }
  in
  ignore (Log.append log torn);
  Log.flush log ();
  Log.close log;
  (* Partial sector write: the update's last 3 bytes never hit disk. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let len = (Unix.fstat fd).Unix.st_size in
  Unix.ftruncate fd (len - 3);
  Unix.close fd;
  (* First restart: the torn update is dropped from file and memory. *)
  let log1 = Log.open_existing path in
  Alcotest.(check int) "only the commit survives" 1 (Log.fold log1 (fun n _ _ -> n + 1) 0);
  Alcotest.(check int) "file truncated to the valid prefix" (Log.size_bytes log1)
    (Unix.stat path).Unix.st_size;
  (* An empty update is exactly as long as the embedded record's offset
     inside the torn update, so its end lines up with the phantom. *)
  let filler : Log_record.t =
    { prev_lsn = 0;
      body = Update { txn = 3; page = page 0 1; offset = 0; before = Bytes.create 0;
                      after = Bytes.create 0 } }
  in
  Alcotest.(check int) "filler ends where the phantom began"
    (find_sub (Log_record.encode torn) phantom)
    (Bytes.length (Log_record.encode filler));
  ignore (Log.append log1 filler);
  Log.flush log1 ();
  Log.close log1;
  (* Second restart: without the first reopen's ftruncate the scan would
     run off the filler straight into the stale embedded commit. *)
  let log2 = Log.open_existing path in
  Alcotest.(check int) "no phantom record" 2 (Log.fold log2 (fun n _ _ -> n + 1) 0);
  Log.close log2;
  Sys.remove path

(* Regression for the open_existing prefix scan: it must walk the file
   with the decoder's [next] offsets, not by re-encoding records. A log
   holding several records of different kinds and variable lengths must
   reopen intact, and appends after reopen must land exactly at the old
   tail. *)
let test_reopen_multi_record () =
  let path = Filename.temp_file "bess_wal_multi" ".log" in
  let log = Log.create ~path () in
  let bodies : Log_record.body list =
    [
      Update { txn = 1; page = page 0 2; offset = 4; before = Bytes.of_string "ab";
               after = Bytes.of_string "cd" };
      Commit { txn = 1 };
      End { txn = 1 };
      Update { txn = 2; page = page 1 3; offset = 0; before = Bytes.create 0;
               after = Bytes.make 100 'x' };
      Prepare { txn = 2; coordinator = 7 };
      Begin_checkpoint;
      End_checkpoint { txns = [ (2, 9, Log_record.Prepared) ]; dirty = [ (page 1 3, 4) ] };
    ]
  in
  List.iter (fun body -> ignore (Log.append log { prev_lsn = 0; body })) bodies;
  Log.flush log ();
  let last = Log.last_lsn log in
  Log.close log;
  let log1 = Log.open_existing path in
  let seen = List.rev (Log.fold log1 (fun acc _ r -> r.Log_record.body :: acc) []) in
  Alcotest.(check int) "all records survive reopen" (List.length bodies) (List.length seen);
  List.iter2 (fun b b' -> Alcotest.(check bool) "record intact" true (b = b')) bodies seen;
  Alcotest.(check int) "last_lsn recomputed" last (Log.last_lsn log1);
  let l = Log.append log1 { prev_lsn = 0; body = Commit { txn = 3 } } in
  Alcotest.(check bool) "append lands after old tail" true (l > last);
  Log.flush log1 ();
  Log.close log1;
  let log2 = Log.open_existing path in
  Alcotest.(check int) "post-reopen append survives a second restart"
    (List.length bodies + 1)
    (Log.fold log2 (fun n _ _ -> n + 1) 0);
  Log.close log2;
  Sys.remove path

(* ---- Master record ------------------------------------------------------- *)

(* The last End_checkpoint is torn off by the crash: the master record
   falls back to the previous complete checkpoint, whose tables still name
   the loser. *)
let test_master_falls_back_past_torn_checkpoint () =
  let log = Log.create () in
  let s = fake_store () in
  let l1 = update log s ~txn:4 ~prev:0 ~pg:1 ~offset:0 ~after:"one" in
  let b1 = Log.append log { prev_lsn = 0; body = Begin_checkpoint } in
  let e1 =
    Log.append log
      { prev_lsn = 0;
        body = End_checkpoint { txns = [ (4, l1, Log_record.Running) ]; dirty = [ (page 0 1, l1) ] } }
  in
  let l2 = update log s ~txn:4 ~prev:l1 ~pg:2 ~offset:0 ~after:"two" in
  ignore (Log.append log { prev_lsn = 0; body = Begin_checkpoint });
  ignore
    (Log.append log
       { prev_lsn = 0;
         body =
           End_checkpoint
             { txns = [ (4, l2, Log_record.Running) ];
               dirty = [ (page 0 1, l1); (page 0 2, l2) ] } });
  Log.flush log ();
  Log.crash log ~tear:3 ();
  Alcotest.(check (option (pair int int))) "previous checkpoint" (Some (b1, e1)) (Log.master log);
  Hashtbl.reset s.lsns;
  let outcome = Recovery.recover log (io_of s) in
  Alcotest.(check (list int)) "loser from the checkpoint's table" [ 4 ] outcome.losers;
  Alcotest.(check int) "both updates undone" 2 outcome.undone;
  Alcotest.(check string) "page 1 restored" "\000\000\000" (Bytes.sub_string s.pages.(1) 0 3);
  Alcotest.(check string) "page 2 restored" "\000\000\000" (Bytes.sub_string s.pages.(2) 0 3)

let test_reopen_restores_master () =
  let path = Filename.temp_file "bess_wal_master" ".log" in
  let log = Log.create ~path () in
  ignore (Log.append log { prev_lsn = 0; body = Commit { txn = 1 } });
  let b = Log.append log { prev_lsn = 0; body = Begin_checkpoint } in
  let e =
    Log.append log
      { prev_lsn = 0; body = End_checkpoint { txns = [ (2, 1, Log_record.Running) ]; dirty = [] } }
  in
  (* An incomplete checkpoint after it does not replace it. *)
  ignore (Log.append log { prev_lsn = 0; body = Begin_checkpoint });
  Log.flush log ();
  Log.close log;
  let log1 = Log.open_existing path in
  Alcotest.(check (option (pair int int))) "master restored" (Some (b, e)) (Log.master log1);
  Log.close log1;
  Sys.remove path

(* ---- Three-pass restart against the log-order reference ------------------- *)

exception Mid_recovery_crash

(* Page I/O for the restart under test: each write forces the log first
   (the WAL rule of a page write-back, which makes undo's CLRs durable as
   it goes) and the [countdown]-th write crashes instead. *)
let crashing_io log (s : fake_store) countdown : Recovery.page_io =
  let io = io_of s in
  { io with
    write =
      (fun p apply ->
        io.write p (fun blit ->
            apply (fun ~lsn ~offset src pos len ->
                if !countdown = 0 then raise Mid_recovery_crash;
                decr countdown;
                Log.flush log ();
                blit ~lsn ~offset src pos len))) }

type model = {
  log : Log.t;
  store : fake_store;
  mutable next_txn : int;
  mutable active : (int * int) list; (* txn, last_lsn *)
  mutable prepared : (int * int) list;
  first_dirty : int array; (* per page: LSN that dirtied it since its last write-back *)
  mutable ckpt_open : int; (* recovery-LSN form of a begun checkpoint still to end; -1 = none *)
}

let nth_txn l k = List.nth l (k mod List.length l)

(* Replay one generated history: interleaved updates, commits (some with
   their END lost), rollbacks, bare aborts, prepares and 2PC decisions,
   log forces, page write-backs, checkpoints (some never completed, some
   ended only after further records mid-stream) whose transaction tables
   carry prepared entries and whose dirty tables reach behind their
   Begin_checkpoint, and crashes with a torn tail followed by a restart.
   Deterministic in [ops]. *)
let replay ops =
  let m =
    { log = Log.create (); store = fake_store (); next_txn = 1; active = []; prepared = [];
      first_dirty = Array.make 8 0; ckpt_open = -1 }
  in
  (* Rollbacks and restarts dirty pages with CLRs and redo too. *)
  let io =
    let io = io_of m.store in
    { io with
      write =
        (fun p apply ->
          io.write p (fun blit ->
              apply (fun ~lsn ~offset src pos len ->
                  blit ~lsn ~offset src pos len;
                  if m.first_dirty.(p.page) = 0 then m.first_dirty.(p.page) <- lsn))) }
  in
  (* The tables as they stand now. Recovery LSNs as ARIES keeps them (the
     LSN that first dirtied the page) or as the page LSN; both lie behind
     the Begin_checkpoint. *)
  let end_checkpoint first_form =
    let dirty =
      List.filter_map
        (fun pg ->
          let first = m.first_dirty.(pg) in
          if first = 0 then None
          else
            Some (page 0 pg, if first_form then first else Hashtbl.find m.store.lsns (page 0 pg)))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    in
    let txns =
      List.rev_map (fun (txn, last) -> (txn, last, Log_record.Running)) m.active
      @ List.rev_map (fun (txn, last) -> (txn, last, Log_record.Prepared)) m.prepared
    in
    ignore (Log.append m.log { prev_lsn = 0; body = End_checkpoint { txns; dirty } })
  in
  let set_last txn lsn = m.active <- (txn, lsn) :: List.remove_assoc txn m.active in
  let finish txn = m.active <- List.remove_assoc txn m.active in
  List.iter
    (fun (op, a, b) ->
      match op with
      | 0 | 1 | 2 | 3 | 4 | 5 ->
          let txn, prev =
            if m.active = [] || a mod 4 = 0 then begin
              m.next_txn <- m.next_txn + 1;
              (m.next_txn - 1, 0)
            end
            else nth_txn m.active a
          in
          let pg = b mod 8 and len = 1 + (b / 8 mod 8) in
          let offset = b / 64 mod (64 - len) in
          let after = String.init len (fun i -> Char.chr (65 + ((a + b + i) mod 26))) in
          let lsn = update m.log m.store ~txn ~prev ~pg ~offset ~after in
          if m.first_dirty.(pg) = 0 then m.first_dirty.(pg) <- lsn;
          set_last txn lsn
      | 6 when m.active <> [] ->
          let txn, last = nth_txn m.active a in
          let lc = Log.append m.log { prev_lsn = last; body = Commit { txn } } in
          if b mod 3 <> 0 then ignore (Log.append m.log { prev_lsn = lc; body = End { txn } });
          finish txn
      | 7 when m.active <> [] ->
          let txn, last_lsn = nth_txn m.active a in
          ignore (Recovery.rollback_txn m.log io ~txn ~last_lsn);
          finish txn
      | 8 when m.active <> [] ->
          (* A rollback cut short: ABORT logged, nothing undone yet. *)
          let txn, last = nth_txn m.active a in
          set_last txn (Log.append m.log { prev_lsn = last; body = Abort { txn } })
      | 9 when m.active <> [] ->
          let txn, last = nth_txn m.active a in
          let lp =
            Log.append m.log { prev_lsn = last; body = Prepare { txn; coordinator = b mod 4 } }
          in
          finish txn;
          m.prepared <- (txn, lp) :: m.prepared
      | 10 when m.prepared <> [] ->
          let txn, last = nth_txn m.prepared a in
          m.prepared <- List.remove_assoc txn m.prepared;
          if b mod 2 = 0 then begin
            let lc = Log.append m.log { prev_lsn = last; body = Commit { txn } } in
            ignore (Log.append m.log { prev_lsn = lc; body = End { txn } })
          end
          else ignore (Recovery.rollback_txn m.log io ~txn ~last_lsn:last)
      | 11 -> Log.flush m.log ()
      | 12 -> m.first_dirty.(b mod 8) <- 0
      | 13 -> (
          ignore (Log.append m.log { prev_lsn = 0; body = Begin_checkpoint });
          match a mod 5 with
          | 0 -> () (* never completed *)
          | 1 -> m.ckpt_open <- b mod 2 (* ended by a later op 15, records between *)
          | _ -> end_checkpoint (b mod 2 = 0))
      | 14 ->
          Log.crash m.log ~tear:(b mod 24) ();
          Hashtbl.reset m.store.lsns;
          Array.fill m.first_dirty 0 8 0;
          m.ckpt_open <- -1;
          let o = Recovery.recover m.log io in
          m.active <- [];
          m.prepared <- o.in_doubt
      | 15 when m.ckpt_open >= 0 ->
          end_checkpoint (m.ckpt_open = 0);
          m.ckpt_open <- -1
      | _ -> ())
    ops;
  m

let pages_of (s : fake_store) = Array.to_list (Array.map Bytes.to_string s.pages)

let lsns_of (s : fake_store) =
  List.sort compare
    (Hashtbl.fold (fun (p : Log_record.page_id) l acc -> ((p.area, p.page), l) :: acc) s.lsns [])

let records_of log = List.rev (Log.fold log (fun acc lsn r -> (lsn, r) :: acc) [])

(* Crash the replayed history with [tear], restart with [recover] and, if
   [crash_after] >= 0, crash again at that page write of the restart and
   restart once more. The second crash tears nothing: a page write made
   its records durable first, and the two restarts write pages in
   different orders, so a tear there could cut a record out from under
   one restart's page and not the other's. *)
let restart recover ops ~tear ~crash_after =
  let m = replay ops in
  Log.crash m.log ~tear ();
  Hashtbl.reset m.store.lsns;
  let outcome =
    match recover m.log (crashing_io m.log m.store (ref crash_after)) with
    | o -> o
    | exception Mid_recovery_crash ->
        Log.crash m.log ();
        Hashtbl.reset m.store.lsns;
        recover m.log (crashing_io m.log m.store (ref (-1)))
  in
  (outcome, pages_of m.store, lsns_of m.store, records_of m.log)

let history_gen =
  QCheck.Gen.(
    triple (list_size (0 -- 80) (triple (0 -- 16) (0 -- 1000) (0 -- 100_000))) (0 -- 24) (-1 -- 40))

let prop_restart_matches_log_order =
  QCheck.Test.make ~name:"three-pass restart equals log-order reference" ~count:300
    (QCheck.make history_gen
       ~print:(fun (ops, tear, crash_after) ->
         Printf.sprintf "tear=%d crash_after=%d ops=[%s]" tear crash_after
           (String.concat "; "
              (List.map (fun (op, a, b) -> Printf.sprintf "(%d,%d,%d)" op a b) ops)))
       ~shrink:(fun (ops, tear, crash_after) ->
         QCheck.Iter.map (fun ops -> (ops, tear, crash_after)) (QCheck.Shrink.list ops)))
    (fun (ops, tear, crash_after) ->
      let o, pages, lsns, records = restart Recovery.recover ops ~tear ~crash_after in
      let o', pages', lsns', records' = restart Ref.recover ops ~tear ~crash_after in
      if o <> o' then QCheck.Test.fail_report "outcome differs";
      if pages <> pages' then QCheck.Test.fail_report "page images differ";
      if lsns <> lsns' then QCheck.Test.fail_report "page-LSN tables differ";
      if records <> records' then QCheck.Test.fail_report "log records differ";
      true)

(* ---- Restart reads the log in place -------------------------------------- *)

(* A restart over 10k committed 8-byte updates to 256 pages. Analysis and
   redo read each record where it lies, and analysis lays every page's
   LSNs out in one exactly sized array (on the major heap at this size),
   so the restart allocates about one minor word per redone record;
   growing an array per page by doubling cost four, decoding a record,
   both images and all, costs tens. *)
let test_restart_allocation () =
  let log = Log.create () in
  let s = { pages = Array.init 256 (fun _ -> Bytes.make 64 '\000'); lsns = Hashtbl.create 256 } in
  let n = 10_000 in
  for txn = 1 to n do
    let l = update log s ~txn ~prev:0 ~pg:(txn * 37 mod 256) ~offset:(txn mod 7 * 8) ~after:"abcdefgh" in
    let c = Log.append log { prev_lsn = l; body = Commit { txn } } in
    ignore (Log.append log { prev_lsn = c; body = End { txn } })
  done;
  Log.flush log ();
  Log.crash log ();
  Hashtbl.reset s.lsns;
  let io = io_of s in
  let before = Stdlib.Gc.minor_words () in
  let outcome = Recovery.recover log io in
  let per_record = (Stdlib.Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "every update redone" n outcome.redone;
  if per_record >= 2.0 then
    Alcotest.failf "%.1f minor words per redone record (bound 2)" per_record

(* Restart's appends follow the transaction ids, however the table that
   analysis keeps them in grows and shrinks. With 400 transactions live
   at once (sparse ids, some ended along the way) the table grows several
   times and then empties to 60, and the restart still appends what the
   reference does, record for record. *)
let test_many_live_transactions () =
  let restart recover =
    let log = Log.create () in
    let s = { pages = Array.init 64 (fun _ -> Bytes.make 64 '\000'); lsns = Hashtbl.create 64 } in
    let txn i = (i * 7919) + 3 in
    let last = Array.make 400 0 in
    for round = 0 to 2 do
      for i = 0 to 399 do
        last.(i) <-
          update log s ~txn:(txn i) ~prev:last.(i) ~pg:((i + round) mod 64) ~offset:(round * 8)
            ~after:"abcdefgh"
      done;
      (* A few transactions commit and end between rounds. *)
      for i = 0 to 399 do
        if i mod 50 = round then begin
          let c = Log.append log { prev_lsn = last.(i); body = Commit { txn = txn i } } in
          last.(i) <- Log.append log { prev_lsn = c; body = End { txn = txn i } }
        end
      done
    done;
    (* Most of the rest end too, so the table ends far below its peak:
       a winner, a prepared transaction and a loser in every twenty. *)
    for i = 0 to 399 do
      let prev_lsn = last.(i) and txn = txn i in
      match i mod 20 with
      | 0 -> ignore (Log.append log { prev_lsn; body = Commit { txn } })
      | 1 -> ignore (Log.append log { prev_lsn; body = Prepare { txn; coordinator = 1 } })
      | 2 -> ()
      | _ ->
          if i mod 50 > 2 then begin
            let c = Log.append log { prev_lsn; body = Commit { txn } } in
            ignore (Log.append log { prev_lsn = c; body = End { txn } })
          end
    done;
    Log.flush log ();
    Log.crash log ();
    Hashtbl.reset s.lsns;
    let o = recover log (io_of s) in
    (o, pages_of s, records_of log)
  in
  let o, pages, records = restart Recovery.recover in
  let o', pages', records' = restart Ref.recover in
  Alcotest.(check bool) "same outcome" true (o = o');
  Alcotest.(check bool) "same page images" true (pages = pages');
  Alcotest.(check int) "same record count" (List.length records') (List.length records);
  Alcotest.(check bool) "same records in the same order" true (records = records')

(* The records a restart appends: the winners' End records in ascending
   id, then the CLRs (latest update first), then the losers' End records
   in ascending id. The ids are sparse and logged out of order, so a hash
   table's iteration order would not sort them. *)
let test_restart_ends_in_txn_order () =
  let log = Log.create () in
  let s = fake_store () in
  let winners = [ 4242; 17; 65_537; 900; 333 ] in
  let running = [ 7001; 58; 12 ] and aborted = [ 2500; 41; 1_000_003 ] in
  let losers = running @ aborted in
  let last =
    List.mapi
      (fun i txn -> (txn, update log s ~txn ~prev:0 ~pg:(i mod 8) ~offset:(i * 4) ~after:"abcd"))
      (winners @ losers)
  in
  List.iter
    (fun txn -> ignore (Log.append log { prev_lsn = List.assoc txn last; body = Commit { txn } }))
    winners;
  List.iter
    (fun txn -> ignore (Log.append log { prev_lsn = List.assoc txn last; body = Abort { txn } }))
    aborted;
  Log.flush log ();
  let crash_lsn = Log.last_lsn log in
  Log.crash log ();
  Hashtbl.reset s.lsns;
  let o = Recovery.recover log (io_of s) in
  let sorted = List.sort Int.compare in
  Alcotest.(check (list int)) "winners" (sorted winners) o.winners;
  Alcotest.(check (list int)) "losers" (sorted losers) o.losers;
  let appended =
    List.filter_map
      (fun (lsn, (r : Log_record.t)) ->
        if lsn <= crash_lsn then None
        else
          match r.body with
          | End e -> Some ("end", e.txn)
          | Clr c -> Some ("clr", c.txn)
          | _ -> Some ("other", 0))
      (records_of log)
  in
  let tag k = List.map (fun txn -> (k, txn)) in
  Alcotest.(check (list (pair string int))) "appended records"
    (tag "end" (sorted winners) @ tag "clr" (List.rev losers) @ tag "end" (sorted losers))
    appended

(* The frame walker trusts the log's invariant, and says so when it is
   broken: a zeroed length field inside the log raises instead of ending
   the walk as a torn tail would. *)
let test_broken_frame_raises () =
  let log = Log.create () in
  ignore (Log.append log { prev_lsn = 0; body = Commit { txn = 1 } });
  let second = Log.append log { prev_lsn = 0; body = Commit { txn = 2 } } in
  Bytes.fill (Log.buffer log) (Log.frame_offset log second) 4 '\000';
  Alcotest.check_raises "zero-length frame"
    (Invalid_argument (Printf.sprintf "Log: broken frame at LSN %d" second))
    (fun () -> Log.iter log (fun _ _ -> ()))

(* ---- Group commit -------------------------------------------------------- *)

let forces log = Bess_util.Stats.get (Log.stats log) "log.forces"

let commit_ticket gc log txn =
  let lsn = Log.append log { prev_lsn = 0; body = Commit { txn } } in
  Gc.commit_lsn gc ~lsn

let test_group_commit_policy_parse () =
  let ok s p =
    match Gc.policy_of_string s with
    | Ok p' -> Alcotest.(check string) s (Gc.policy_to_string p) (Gc.policy_to_string p')
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  ok "immediate" Gc.Immediate;
  ok "group:8" (Gc.Group_n 8);
  ok "16" (Gc.Group_n 16);
  ok "group:1" Gc.Immediate;
  ok "window:500" (Gc.Window 500);
  (match Gc.policy_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage policy accepted")

let test_group_commit_batches () =
  let log = Log.create () in
  let gc = Gc.create ~policy:(Gc.Group_n 4) log in
  let tks = List.map (commit_ticket gc log) [ 1; 2; 3 ] in
  Alcotest.(check int) "no force below the group size" 0 (forces log);
  Alcotest.(check int) "three pending" 3 (Gc.pending gc);
  List.iter (fun tk -> Alcotest.(check bool) "unreleased" false (Gc.is_released tk)) tks;
  let tk4 = commit_ticket gc log 4 in
  Alcotest.(check int) "fourth committer triggers one force" 1 (forces log);
  Alcotest.(check int) "group drained" 0 (Gc.pending gc);
  List.iter (fun tk -> Alcotest.(check bool) "released" true (Gc.is_released tk)) (tk4 :: tks);
  Alcotest.(check bool) "durable horizon covers the batch" true
    (Log.flushed_lsn log >= Log.last_lsn log);
  let h = Bess_util.Stats.histogram (Log.stats log) "wal.group.commits_per_force" in
  Alcotest.(check int) "one force sample" 1 (Bess_util.Histogram.count h);
  Alcotest.(check int) "four commits in it" 4 (Bess_util.Histogram.sum h)

let test_group_commit_window () =
  let log = Log.create () in
  let gc = Gc.create ~policy:(Gc.Window 1_000) log in
  let tk1 = commit_ticket gc log 1 in
  Alcotest.(check int) "window open: no force" 0 (forces log);
  Bess_obs.Span.advance_ns 1_500;
  let tk2 = commit_ticket gc log 2 in
  Alcotest.(check int) "expired window forces" 1 (forces log);
  Alcotest.(check bool) "both released" true (Gc.is_released tk1 && Gc.is_released tk2)

let test_group_commit_await_stall_force () =
  let log = Log.create () in
  let gc = Gc.create ~policy:(Gc.Group_n 16) log in
  let tk1 = commit_ticket gc log 1 in
  let tk2 = commit_ticket gc log 2 in
  Alcotest.(check int) "under the group size: no force yet" 0 (forces log);
  (* A waiter that cannot wait for more committers forces the group
     itself: the ack never precedes durability. *)
  Gc.await gc tk1;
  Alcotest.(check int) "stall force" 1 (forces log);
  Alcotest.(check bool) "whole group released" true (Gc.is_released tk2);
  Gc.await gc tk2;
  Alcotest.(check int) "no second force" 1 (forces log)

let test_group_commit_out_of_band_flush () =
  let log = Log.create () in
  let gc = Gc.create ~policy:(Gc.Group_n 8) log in
  let tk = commit_ticket gc log 1 in
  (* A checkpoint-style direct flush makes the LSN durable behind the
     scheduler's back; release_durable must notice without forcing. *)
  Log.flush log ();
  let before = forces log in
  Gc.release_durable gc;
  Alcotest.(check bool) "released by the durable horizon" true (Gc.is_released tk);
  Alcotest.(check int) "no extra force" before (forces log);
  Gc.await gc tk (* must be a no-op *)

let test_group_commit_lost_ticket () =
  let log = Log.create () in
  let gc = Gc.create ~policy:(Gc.Group_n 8) log in
  let tk = commit_ticket gc log 1 in
  (* Crash before the group forced: the tail is gone, the commit was
     never acknowledged, and awaiting it must fail loudly. *)
  Gc.reset gc;
  Log.crash log ();
  Alcotest.check_raises "await after crash" Gc.Lost_ticket (fun () -> Gc.await gc tk)

let prop_codec_fuzz =
  QCheck.Test.make ~name:"update record roundtrip" ~count:200
    QCheck.(quad small_nat small_nat small_string small_string)
    (fun (txn, offset, before, after) ->
      let len = Stdlib.min (String.length before) (String.length after) in
      let r : Log_record.t =
        { prev_lsn = 0;
          body = Update { txn; page = page 0 1; offset;
                          before = Bytes.of_string (String.sub before 0 len);
                          after = Bytes.of_string (String.sub after 0 len) } }
      in
      let img = Log_record.encode r in
      fst (Log_record.decode img 0) = r)

let suite =
  [
    Alcotest.test_case "record_codec" `Quick test_record_codec_roundtrip;
    Alcotest.test_case "append_iterate" `Quick test_append_iterate;
    Alcotest.test_case "torn_tail" `Quick test_torn_tail_discarded;
    Alcotest.test_case "redo_committed" `Quick test_recovery_redo_committed;
    Alcotest.test_case "undo_loser" `Quick test_recovery_undo_loser;
    Alcotest.test_case "recovery_idempotent" `Quick test_recovery_idempotent;
    Alcotest.test_case "in_doubt_preserved" `Quick test_recovery_in_doubt;
    Alcotest.test_case "checkpoint" `Quick test_checkpoint_shortens_analysis;
    Alcotest.test_case "rollback_in_place" `Quick test_rollback_in_place;
    Alcotest.test_case "file_backed_reopen" `Quick test_file_backed_log_reopen;
    Alcotest.test_case "reopen_truncates_file" `Quick test_reopen_truncates_file;
    Alcotest.test_case "reopen_multi_record" `Quick test_reopen_multi_record;
    Alcotest.test_case "master_falls_back_past_torn_checkpoint" `Quick
      test_master_falls_back_past_torn_checkpoint;
    Alcotest.test_case "reopen_restores_master" `Quick test_reopen_restores_master;
    QCheck_alcotest.to_alcotest prop_restart_matches_log_order;
    Alcotest.test_case "restart_allocation" `Quick test_restart_allocation;
    Alcotest.test_case "broken_frame_raises" `Quick test_broken_frame_raises;
    Alcotest.test_case "many_live_transactions" `Quick test_many_live_transactions;
    Alcotest.test_case "restart_ends_in_txn_order" `Quick test_restart_ends_in_txn_order;
    Alcotest.test_case "group_commit_policy_parse" `Quick test_group_commit_policy_parse;
    Alcotest.test_case "group_commit_batches" `Quick test_group_commit_batches;
    Alcotest.test_case "group_commit_window" `Quick test_group_commit_window;
    Alcotest.test_case "group_commit_await_stall" `Quick test_group_commit_await_stall_force;
    Alcotest.test_case "group_commit_oob_flush" `Quick test_group_commit_out_of_band_flush;
    Alcotest.test_case "group_commit_lost_ticket" `Quick test_group_commit_lost_ticket;
    QCheck_alcotest.to_alcotest prop_codec_fuzz;
  ]
