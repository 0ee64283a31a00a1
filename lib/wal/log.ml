(* The append-only log: in-memory tail over an optional backing file.

   LSNs are byte offsets of records, starting at 1 (0 is "no LSN"). The
   write-ahead contract is enforced by callers through [flush]: a page may
   reach disk only after [flushed_lsn] covers its page-LSN, and commit
   forces the log through the commit record. Forces are counted so
   experiments can report group-commit-style savings. *)

module Span = Bess_obs.Span
module Stats = Bess_util.Stats

(* Simulated cost of the fsync behind a log force, charged to the span
   clock so wal.force spans dominate commit timelines the way a real
   synchronous disk write would. *)
let force_ns = 100_000

type t = {
  mutable buf : Bytes.t;
  mutable used : int; (* bytes 0..used-1 are valid; LSN l lives at buf offset l-1 *)
  mutable flushed : int; (* bytes durable; LSN <= flushed is safe *)
  mutable last_lsn : int;
  mutable ckpt_open : int; (* LSN of the last Begin_checkpoint, complete or not; 0 = none *)
  mutable master : (int * int) option; (* begin/end LSNs of the last complete checkpoint *)
  backing : Unix.file_descr option;
  stats : Stats.t;
  c_appends : Stats.counter;
  c_bytes : Stats.counter;
  h_append_bytes : Stats.hist;
  c_forces : Stats.counter;
  c_forced_bytes : Stats.counter;
}

let base = 1 (* first LSN *)

let make ~buf ~used ~backing =
  let stats = Stats.create () in
  (* Eager: the append-size distribution is part of every report even
     before the first record. *)
  ignore (Stats.histogram stats "log.append_bytes");
  { buf; used; flushed = used; last_lsn = 0; ckpt_open = 0; master = None; backing; stats;
    c_appends = Stats.counter stats "log.appends";
    c_bytes = Stats.counter stats "log.bytes";
    h_append_bytes = Stats.hist stats "log.append_bytes";
    c_forces = Stats.counter stats "log.forces";
    c_forced_bytes = Stats.counter stats "log.forced_bytes" }

let create ?path () =
  let backing =
    Option.map (fun p -> Unix.openfile p [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644) path
  in
  make ~buf:(Bytes.create 4096) ~used:0 ~backing

let stats t = t.stats
let last_lsn t = t.last_lsn
let master t = t.master
let flushed_lsn t = t.flushed + base - 1
let size_bytes t = t.used

let ensure t extra =
  let need = t.used + extra in
  if need > Bytes.length t.buf then begin
    let n' = Stdlib.max need (2 * Bytes.length t.buf) in
    let b = Bytes.create n' in
    Bytes.blit t.buf 0 b 0 t.used;
    t.buf <- b
  end

(* The master record, as ARIES keeps it: an [End_checkpoint] completes
   the checkpoint opened by the latest [Begin_checkpoint] before it. Kept
   current by [append] and rebuilt by the validating scan, from the kind
   of the record at [off]. *)
let note_record t off =
  match Log_record.Frame.kind t.buf off with
  | Begin_checkpoint -> t.ckpt_open <- off + base
  | End_checkpoint -> t.master <- Some (t.ckpt_open, off + base)
  | _ -> ()

let append t (record : Log_record.t) =
  Span.with_span ~kind:"wal.append" (fun () ->
      let n = Log_record.size record in
      ensure t n;
      let lsn = t.used + base in
      Log_record.encode_into record t.buf t.used;
      note_record t t.used;
      t.used <- t.used + n;
      t.last_lsn <- lsn;
      Stats.bump t.c_appends;
      Stats.bump_by t.c_bytes n;
      Stats.record t.h_append_bytes n;
      lsn)

let write_backing t ~from ~upto =
  match t.backing with
  | Some fd ->
      ignore (Unix.lseek fd from Unix.SEEK_SET);
      let rec write_all pos limit =
        if pos < limit then begin
          let n = Unix.write fd t.buf pos (limit - pos) in
          write_all (pos + n) limit
        end
      in
      write_all from upto;
      Unix.fsync fd
  | None -> ()

(* Force the log through [lsn]. A no-op if already durable -- that is what
   makes repeated commit forces cheap under a hot log tail.

   Fault sites (all [Never] unless armed, in which case a failed attempt
   is retried up to three times before raising [Fault.Injected] -- a
   force never lies about durability):
   - [wal.force.eio]: the write fails outright, nothing reaches the
     platter;
   - [wal.force.torn]: a partial sector write -- all but the last few
     bytes land, tearing the final record (the CRC scan discards it);
   - [wal.force.short]: only half the pending bytes land.
   A torn/short attempt advances [flushed] to the bytes that really made
   it, so a crash before a successful retry loses exactly the torn
   suffix; the retry rewrites the suffix from the in-memory tail. *)
let flush t ?lsn () =
  let target = match lsn with Some l -> l - base + 1 | None -> t.used in
  if target > t.flushed then
    Span.with_span ~kind:"wal.force"
      ~attrs:
        (if Span.enabled () then [ ("bytes", string_of_int (t.used - t.flushed)) ] else [])
      (fun () ->
        let rec attempt n =
          Span.advance_ns force_ns;
          if Bess_fault.Fault.fire "wal.force.eio" then begin
            Stats.incr t.stats "log.force_errors";
            if n >= 3 then raise (Bess_fault.Fault.Injected "wal.force: persistent I/O error");
            attempt (n + 1)
          end
          else begin
            let partial =
              if Bess_fault.Fault.fire "wal.force.torn" then begin
                Stats.incr t.stats "log.torn_forces";
                Some
                  (Stdlib.max t.flushed
                     (t.used - 1 - Bess_fault.Fault.draw "wal.force.torn" ~bound:16))
              end
              else if Bess_fault.Fault.fire "wal.force.short" then begin
                Stats.incr t.stats "log.short_forces";
                Some (t.flushed + ((t.used - t.flushed) / 2))
              end
              else None
            in
            match partial with
            | Some upto when upto < t.used ->
                write_backing t ~from:t.flushed ~upto;
                (* Partial or not, bytes that reached the platter count
                   toward write amplification. *)
                Stats.bump_by t.c_forced_bytes (upto - t.flushed);
                t.flushed <- upto;
                if n >= 3 then
                  raise (Bess_fault.Fault.Injected "wal.force: torn write, retries exhausted");
                attempt (n + 1)
            | _ ->
                write_backing t ~from:t.flushed ~upto:t.used;
                Stats.bump_by t.c_forced_bytes (t.used - t.flushed);
                t.flushed <- t.used;
                Stats.bump t.c_forces
          end
        in
        attempt 1)

let buffer t = t.buf

let frame_offset t lsn =
  let off = lsn - base in
  if off < 0 || off >= t.used then invalid_arg "Log: LSN out of range";
  off

let read t lsn =
  let off = frame_offset t lsn in
  (Log_record.decode_frame t.buf off, off + Log_record.Frame.size t.buf off + base)

(* The frame walker every sequential reader goes through. Bytes
   [0, used) hold whole, valid records (the invariant in log.mli), so a
   frame shorter than any record or running past [used] is a broken
   invariant, not a torn tail: it raises rather than ending the walk. *)
let iter_frames ?(from = base) ?(until = max_int) t f =
  let rec go off =
    if off < t.used && off + base < until then begin
      let n = Log_record.Frame.size t.buf off in
      if n < Log_record.min_size || off + n > t.used then
        invalid_arg (Printf.sprintf "Log: broken frame at LSN %d" (off + base));
      f (off + base) t.buf off;
      go (off + n)
    end
  in
  go (from - base)

let iter ?from t f =
  iter_frames ?from t (fun lsn buf off -> f lsn (Log_record.decode_frame buf off))

let fold ?from t f init =
  let acc = ref init in
  iter ?from t (fun lsn r -> acc := f !acc lsn r);
  !acc

(* The one validating scan of a restart, and the only place a restart
   checks a CRC: the longest prefix of whole, CRC-valid records within
   bytes [0, limit), checked with [Log_record.validate] and never
   decoded. Sets [last_lsn] and the master record from it and returns its
   length. *)
let scan_valid t ~limit =
  t.last_lsn <- 0;
  t.ckpt_open <- 0;
  t.master <- None;
  let rec go off =
    if off >= limit then off
    else
      match Log_record.validate t.buf off with
      | next when next <= limit ->
          t.last_lsn <- off + base;
          note_record t off;
          go next
      | _ -> off (* whole only past [limit] *)
      | exception Log_record.Torn_record -> off
  in
  go 0

(* Simulate a crash for tests: truncate the volatile tail back to what was
   flushed, optionally tearing [tear] extra bytes off the end to model a
   partial sector write. *)
let crash t ?(tear = 0) () =
  (* The durable prefix can end mid-record (a tear, or a torn force that
     advanced [flushed] partway into a record). What survives is the
     longest valid *record* prefix within it: a partial record both
     fails its CRC and must not sit in front of post-recovery appends,
     which would otherwise be unreachable behind the garbage. *)
  let survive = scan_valid t ~limit:(Stdlib.max 0 (t.flushed - tear)) in
  (* Model the loss: the bytes past the durable prefix are gone, not
     merely hidden -- a truncated record must fail its CRC. Bytes past
     [used] never held a record and are never read. *)
  Bytes.fill t.buf survive (t.used - survive) '\000';
  t.used <- survive;
  t.flushed <- survive

let close t = Option.iter Unix.close t.backing

(* Re-open a backing file into a fresh log (after a real process crash).
   Scans to the first torn record and truncates there. *)
let open_existing path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let len = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create (Stdlib.max len 4096) in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec read_all pos =
    if pos < len then begin
      let n = Unix.read fd buf pos (len - pos) in
      if n = 0 then () else read_all (pos + n)
    end
  in
  read_all 0;
  let t = make ~buf ~used:len ~backing:(Some fd) in
  (* Find the valid prefix: walk the records by their framing, whose
     length field already delimits each one — no re-encoding, and no
     dependency on encode/decode round-trip stability. *)
  let valid = scan_valid t ~limit:len in
  t.used <- valid;
  t.flushed <- valid;
  (* Torn bytes past the valid prefix must not survive on disk: a later
     append that flushes fewer bytes than the tear would leave stale
     record fragments beyond the new tail, and a second crash could
     resurrect them as phantom records. Truncate file and buffer alike. *)
  if valid < len then begin
    Unix.ftruncate fd valid;
    Bytes.fill buf valid (len - valid) '\000';
    Stats.incr t.stats "log.reopen_truncations"
  end;
  t
