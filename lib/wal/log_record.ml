(* Write-ahead log records, ARIES-flavoured (Mohan et al. [21]).

   Update records carry physical before/after images of a byte range of a
   page; compensation records (CLRs) are redo-only and carry the
   undo-next-LSN so rollback never undoes an undo. Prepare records support
   the 2PC participant state (section 3 of the paper). Records serialize
   with a length prefix and CRC so the log tail can be scanned and a torn
   final record detected and discarded. *)

type page_id = Bess_cache.Page_id.t = { area : int; page : int }

type txn_status = Running | Committed | Prepared

type body =
  | Update of { txn : int; page : page_id; offset : int; before : Bytes.t; after : Bytes.t }
  | Clr of { txn : int; page : page_id; offset : int; image : Bytes.t; undo_next : int }
  | Commit of { txn : int }
  | Abort of { txn : int }
  | End of { txn : int }
  | Prepare of { txn : int; coordinator : int }
  | Decision of { gid : int; participants : (int * int) list }
  | Begin_checkpoint
  | End_checkpoint of {
      txns : (int * int * txn_status) list; (* txn, last_lsn, status *)
      dirty : (page_id * int) list; (* page, recovery lsn *)
    }

type t = { prev_lsn : int (* previous record of the same transaction, 0 = none *); body : body }

let tag_of_body = function
  | Update _ -> 1
  | Clr _ -> 2
  | Commit _ -> 3
  | Abort _ -> 4
  | End _ -> 5
  | Prepare _ -> 6
  | Begin_checkpoint -> 7
  | End_checkpoint _ -> 8
  | Decision _ -> 9

let pp ppf t =
  match t.body with
  | Update u ->
      Fmt.pf ppf "UPDATE txn=%d page=%a off=%d len=%d" u.txn Bess_cache.Page_id.pp u.page u.offset
        (Bytes.length u.after)
  | Clr c ->
      Fmt.pf ppf "CLR txn=%d page=%a off=%d undo_next=%d" c.txn Bess_cache.Page_id.pp c.page c.offset
        c.undo_next
  | Commit c -> Fmt.pf ppf "COMMIT txn=%d" c.txn
  | Abort a -> Fmt.pf ppf "ABORT txn=%d" a.txn
  | End e -> Fmt.pf ppf "END txn=%d" e.txn
  | Prepare p -> Fmt.pf ppf "PREPARE txn=%d coord=%d" p.txn p.coordinator
  | Decision d ->
      Fmt.pf ppf "DECISION gid=%d participants=[%a]" d.gid
        Fmt.(list ~sep:comma (pair ~sep:(any ":") int int))
        d.participants
  | Begin_checkpoint -> Fmt.pf ppf "BEGIN_CKPT"
  | End_checkpoint e ->
      Fmt.pf ppf "END_CKPT txns=%d dirty=%d" (List.length e.txns) (List.length e.dirty)

(* ---- Serialization ------------------------------------------------------ *)

(* Full record image: [total_len u32][crc u32][tag u8][prev_lsn u32][body].
   total_len covers tag..body; crc covers the same range. *)
let header = 8

let body_size = function
  | Update u -> 16 + 4 + Bytes.length u.before + 4 + Bytes.length u.after
  | Clr c -> 16 + 4 + Bytes.length c.image + 4
  | Commit _ | Abort _ | End _ -> 4
  | Prepare _ -> 8
  | Decision d -> 8 + (8 * List.length d.participants)
  | Begin_checkpoint -> 0
  | End_checkpoint e -> 4 + (9 * List.length e.txns) + 4 + (12 * List.length e.dirty)

let size t = header + 5 + body_size t.body

(* Writers thread the write position: each returns the offset past what
   it wrote. *)
let put_u32 buf pos v =
  Bess_util.Codec.set_u32 buf pos v;
  pos + 4

let put_bytes buf pos b =
  let pos = put_u32 buf pos (Bytes.length b) in
  Bytes.blit b 0 buf pos (Bytes.length b);
  pos + Bytes.length b

let put_page buf pos (p : page_id) = put_u32 buf (put_u32 buf pos p.area) p.page

let status_code = function Running -> 0 | Committed -> 1 | Prepared -> 2

let put_body buf pos = function
  | Update u ->
      let pos = put_page buf (put_u32 buf pos u.txn) u.page in
      let pos = put_bytes buf (put_u32 buf pos u.offset) u.before in
      put_bytes buf pos u.after
  | Clr c ->
      let pos = put_page buf (put_u32 buf pos c.txn) c.page in
      let pos = put_bytes buf (put_u32 buf pos c.offset) c.image in
      put_u32 buf pos c.undo_next
  | Commit { txn } | Abort { txn } | End { txn } -> put_u32 buf pos txn
  | Prepare p -> put_u32 buf (put_u32 buf pos p.txn) p.coordinator
  | Decision d ->
      let pos = put_u32 buf (put_u32 buf pos d.gid) (List.length d.participants) in
      List.fold_left
        (fun pos (shard, txn) -> put_u32 buf (put_u32 buf pos shard) txn)
        pos d.participants
  | Begin_checkpoint -> pos
  | End_checkpoint e ->
      let pos =
        List.fold_left
          (fun pos (txn, lsn, status) ->
            let pos = put_u32 buf (put_u32 buf pos txn) lsn in
            Bess_util.Codec.set_u8 buf pos (status_code status);
            pos + 1)
          (put_u32 buf pos (List.length e.txns))
          e.txns
      in
      List.fold_left
        (fun pos (p, lsn) -> put_u32 buf (put_page buf pos p) lsn)
        (put_u32 buf pos (List.length e.dirty))
        e.dirty

(* [encode_into t buf off] writes the image of [t] at [off] in place; the
   caller has made room for [size t] bytes. *)
let encode_into t buf off =
  let payload = off + header in
  Bess_util.Codec.set_u8 buf payload (tag_of_body t.body);
  let stop = put_body buf (put_u32 buf (payload + 1) t.prev_lsn) t.body in
  let len = stop - payload in
  Bess_util.Codec.set_u32 buf off len;
  Bess_util.Codec.set_u32 buf (off + 4)
    (Bess_util.Crc32.to_int (Bess_util.Crc32.bytes ~off:payload ~len buf))

let encode t =
  let out = Bytes.create (size t) in
  encode_into t out 0;
  out

exception Torn_record

(* [validate b off] checks the framing of the record at [off] -- length,
   CRC and tag -- without decoding it, and returns its tag and the offset
   of the next record. Raises [Torn_record] on truncation, CRC mismatch
   (expected at the very tail after a crash) or an unknown tag. *)
let validate b off =
  if off + header > Bytes.length b then raise Torn_record;
  let len = Bess_util.Codec.get_u32 b off in
  let crc = Bess_util.Codec.get_u32 b (off + 4) in
  if len = 0 || off + header + len > Bytes.length b then raise Torn_record;
  if Bess_util.Crc32.to_int (Bess_util.Crc32.bytes ~off:(off + header) ~len b) <> crc then
    raise Torn_record;
  let tag = Bess_util.Codec.get_u8 b (off + header) in
  if tag < 1 || tag > 9 then raise Torn_record;
  (tag, off + header + len)

(* [decode b off] parses the record at [off]; returns it and the offset of
   the next record. Raises [Torn_record] where [validate] would. *)
let decode b off =
  let _, next = validate b off in
  let pos = ref (off + header) in
  let u8 () =
    let v = Bess_util.Codec.get_u8 b !pos in
    incr pos;
    v
  in
  let u32 () =
    let v = Bess_util.Codec.get_u32 b !pos in
    pos := !pos + 4;
    v
  in
  let bytes_ () =
    let n = u32 () in
    let v = Bytes.sub b !pos n in
    pos := !pos + n;
    v
  in
  let page () =
    let area = u32 () in
    let page = u32 () in
    { area; page }
  in
  let tag = u8 () in
  let prev_lsn = u32 () in
  let body =
    match tag with
    | 1 ->
        let txn = u32 () in
        let pg = page () in
        let offset = u32 () in
        let before = bytes_ () in
        let after = bytes_ () in
        Update { txn; page = pg; offset; before; after }
    | 2 ->
        let txn = u32 () in
        let pg = page () in
        let offset = u32 () in
        let image = bytes_ () in
        let undo_next = u32 () in
        Clr { txn; page = pg; offset; image; undo_next }
    | 3 -> Commit { txn = u32 () }
    | 4 -> Abort { txn = u32 () }
    | 5 -> End { txn = u32 () }
    | 6 ->
        let txn = u32 () in
        let coordinator = u32 () in
        Prepare { txn; coordinator }
    | 7 -> Begin_checkpoint
    | 8 ->
        let n_txns = u32 () in
        let txns = List.init n_txns (fun _ ->
            let txn = u32 () in
            let lsn = u32 () in
            let status =
              match u8 () with
              | 0 -> Running
              | 1 -> Committed
              | 2 -> Prepared
              | _ -> raise Torn_record
            in
            (txn, lsn, status))
        in
        let n_dirty = u32 () in
        let dirty = List.init n_dirty (fun _ ->
            let pg = page () in
            let lsn = u32 () in
            (pg, lsn))
        in
        End_checkpoint { txns; dirty }
    | 9 ->
        let gid = u32 () in
        let n = u32 () in
        let participants = List.init n (fun _ ->
            let shard = u32 () in
            let txn = u32 () in
            (shard, txn))
        in
        Decision { gid; participants }
    | _ -> raise Torn_record
  in
  ({ prev_lsn; body }, next)
