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
   total_len covers tag..body; crc covers the same range. The offsets
   below, relative to the record's start, are the layout the encoder
   writes and the one {!Frame} reads in place. *)
let header = 8
let tag_at = header
let prev_at = header + 1
let body_at = header + 5

(* Every body but the checkpoints' starts with a u32 txn (a Decision's
   gid). Update and Clr go on with the page, the page offset, and a
   length-prefixed image: Update's before image and then its after
   image, Clr's one image and then its undo-next LSN. *)
let txn_at = body_at
let area_at = body_at + 4
let page_at = body_at + 8
let offset_at = body_at + 12
let image_at = body_at + 16

(* A Decision goes on with its participant count and then, per
   participant, a u32 shard and a u32 txn. *)
let n_parts_at = body_at + 4
let part_shard_at i = body_at + 8 + (8 * i)
let part_txn_at i = part_shard_at i + 4

let body_size = function
  | Update u -> 16 + 4 + Bytes.length u.before + 4 + Bytes.length u.after
  | Clr c -> 16 + 4 + Bytes.length c.image + 4
  | Commit _ | Abort _ | End _ -> 4
  | Prepare _ -> 8
  | Decision d -> part_shard_at (List.length d.participants) - body_at
  | Begin_checkpoint -> 0
  | End_checkpoint e -> 4 + (9 * List.length e.txns) + 4 + (12 * List.length e.dirty)

let size t = body_at + body_size t.body
let min_size = size { prev_lsn = 0; body = Begin_checkpoint }

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

(* The fixed-offset head of an Update or Clr at [off]; returns [image_at]. *)
let put_image_head buf off ~txn (p : page_id) ~offset =
  ignore (put_u32 buf (off + txn_at) txn);
  ignore (put_page buf (off + area_at) p);
  ignore (put_u32 buf (off + offset_at) offset);
  off + image_at

let status_code = function Running -> 0 | Committed -> 1 | Prepared -> 2

(* The body of the record at [off]; returns the offset past it. *)
let put_body buf off = function
  | Update u ->
      let pos = put_image_head buf off ~txn:u.txn u.page ~offset:u.offset in
      put_bytes buf (put_bytes buf pos u.before) u.after
  | Clr c ->
      let pos = put_image_head buf off ~txn:c.txn c.page ~offset:c.offset in
      put_u32 buf (put_bytes buf pos c.image) c.undo_next
  | Commit { txn } | Abort { txn } | End { txn } -> put_u32 buf (off + txn_at) txn
  | Prepare p -> put_u32 buf (put_u32 buf (off + txn_at) p.txn) p.coordinator
  | Decision d ->
      ignore (put_u32 buf (off + txn_at) d.gid);
      ignore (put_u32 buf (off + n_parts_at) (List.length d.participants));
      List.iteri
        (fun i (shard, txn) ->
          ignore (put_u32 buf (off + part_shard_at i) shard);
          ignore (put_u32 buf (off + part_txn_at i) txn))
        d.participants;
      off + part_shard_at (List.length d.participants)
  | Begin_checkpoint -> off + body_at
  | End_checkpoint e ->
      let pos =
        List.fold_left
          (fun pos (txn, lsn, status) ->
            let pos = put_u32 buf (put_u32 buf pos txn) lsn in
            Bess_util.Codec.set_u8 buf pos (status_code status);
            pos + 1)
          (put_u32 buf (off + body_at) (List.length e.txns))
          e.txns
      in
      List.fold_left
        (fun pos (p, lsn) -> put_u32 buf (put_page buf pos p) lsn)
        (put_u32 buf pos (List.length e.dirty))
        e.dirty

(* [encode_into t buf off] writes the image of [t] at [off] in place; the
   caller has made room for [size t] bytes. *)
let encode_into t buf off =
  Bess_util.Codec.set_u8 buf (off + tag_at) (tag_of_body t.body);
  ignore (put_u32 buf (off + prev_at) t.prev_lsn);
  let len = put_body buf off t.body - (off + header) in
  Bess_util.Codec.set_u32 buf off len;
  Bess_util.Codec.set_u32 buf (off + 4)
    (Bess_util.Crc32.to_int (Bess_util.Crc32.bytes ~off:(off + header) ~len buf))

let encode t =
  let out = Bytes.create (size t) in
  encode_into t out 0;
  out

exception Torn_record

(* ---- Frames: valid record images read in place ----------------------------- *)

module Frame = struct
  type kind =
    | Update
    | Clr
    | Commit
    | Abort
    | End
    | Prepare
    | Begin_checkpoint
    | End_checkpoint
    | Decision

  (* In tag order: tag [n] names [kinds.(n - 1)]. *)
  let kinds =
    [| Update; Clr; Commit; Abort; End; Prepare; Begin_checkpoint; End_checkpoint; Decision |]

  let u32 b off at = Bess_util.Codec.get_u32 b (off + at)
  let size b off = header + Bess_util.Codec.get_u32 b off
  let kind b off = kinds.(Bess_util.Codec.get_u8 b (off + tag_at) - 1)
  let prev_lsn b off = u32 b off prev_at
  let txn b off = u32 b off txn_at
  let page_key b off = Bess_cache.Page_id.key ~area:(u32 b off area_at) ~page:(u32 b off page_at)
  let page b off = { area = u32 b off area_at; page = u32 b off page_at }
  let offset b off = u32 b off offset_at
  let n_participants b off = u32 b off n_parts_at
  let participant_shard b off i = u32 b off (part_shard_at i)
  let participant_txn b off i = u32 b off (part_txn_at i)

  (* The redo image's length prefix: Update's after image follows its
     before image; Clr's image is the first. *)
  let redo_len_at b off =
    match kind b off with
    | Update -> off + image_at + 4 + u32 b off image_at
    | Clr -> off + image_at
    | _ -> invalid_arg "Log_record.Frame: no redo image"

  let redo_pos b off = redo_len_at b off + 4
  let redo_len b off = Bess_util.Codec.get_u32 b (redo_len_at b off)
end

(* [validate b off] checks the framing of the record at [off] -- length,
   CRC and tag -- without decoding it, and returns the offset of the next
   record. Raises [Torn_record] on truncation, CRC mismatch (expected at
   the very tail after a crash) or an unknown tag. *)
let validate b off =
  if off + header > Bytes.length b then raise Torn_record;
  let len = Bess_util.Codec.get_u32 b off in
  let crc = Bess_util.Codec.get_u32 b (off + 4) in
  if len = 0 || off + header + len > Bytes.length b then raise Torn_record;
  if Bess_util.Crc32.to_int (Bess_util.Crc32.bytes ~off:(off + header) ~len b) <> crc then
    raise Torn_record;
  let tag = Bess_util.Codec.get_u8 b (off + tag_at) in
  if tag < 1 || tag > Array.length Frame.kinds then raise Torn_record;
  off + header + len

(* Parse a valid image: the head at its fixed offsets, the rest in
   order. Checks nothing but a checkpoint's status codes. *)
let decode_frame b off =
  let pos = ref (off + body_at) in
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
  let txn () = Frame.txn b off in
  let body =
    match Frame.kind b off with
    | Frame.Update ->
        pos := off + image_at;
        let before = bytes_ () in
        let after = bytes_ () in
        Update { txn = txn (); page = Frame.page b off; offset = Frame.offset b off; before; after }
    | Frame.Clr ->
        pos := off + image_at;
        let image = bytes_ () in
        let undo_next = u32 () in
        Clr { txn = txn (); page = Frame.page b off; offset = Frame.offset b off; image; undo_next }
    | Frame.Commit -> Commit { txn = txn () }
    | Frame.Abort -> Abort { txn = txn () }
    | Frame.End -> End { txn = txn () }
    | Frame.Prepare ->
        Prepare { txn = txn (); coordinator = Bess_util.Codec.get_u32 b (off + txn_at + 4) }
    | Frame.Begin_checkpoint -> Begin_checkpoint
    | Frame.End_checkpoint ->
        let n_txns = u32 () in
        let txns = List.init n_txns (fun _ ->
            let txn = u32 () in
            let lsn = u32 () in
            let status =
              match Bess_util.Codec.get_u8 b !pos with
              | 0 -> Running
              | 1 -> Committed
              | 2 -> Prepared
              | _ -> raise Torn_record
            in
            incr pos;
            (txn, lsn, status))
        in
        let n_dirty = u32 () in
        let dirty = List.init n_dirty (fun _ ->
            let pg = page () in
            let lsn = u32 () in
            (pg, lsn))
        in
        End_checkpoint { txns; dirty }
    | Frame.Decision ->
        let participants =
          List.init (Frame.n_participants b off) (fun i ->
              (Frame.participant_shard b off i, Frame.participant_txn b off i))
        in
        Decision { gid = txn (); participants }
  in
  { prev_lsn = Frame.prev_lsn b off; body }

(* [decode b off] checks and parses the record at [off]; returns it and
   the offset of the next record. Raises [Torn_record] where [validate]
   would. *)
let decode b off =
  let next = validate b off in
  (decode_frame b off, next)
