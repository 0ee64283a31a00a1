(** ARIES recovery: analysis, redo ("repeat history"), undo with CLRs
    (section 3: "recovery is based on an ARIES-like [21] write-ahead log
    protocol"). A restart reads the log where it lies: no record is
    decoded or CRC-checked by analysis or redo.

    Written against an abstract page store so it drives both the real
    cache/storage stack and the fake stores in tests. Prepared (2PC)
    transactions survive restart as in-doubt. *)

(** [blit ~lsn ~offset src pos len] copies [len] bytes of [src] from
    [pos] to [offset] of a pinned page, as the image of record [lsn],
    which becomes the page LSN. *)
type blit = lsn:int -> offset:int -> Bytes.t -> int -> int -> unit

(** The page operations recovery needs. Page LSNs may be volatile (redo
    of physical images is idempotent from 0). *)
type page_io = {
  page_lsn : Log_record.page_id -> int;
  write : Log_record.page_id -> (blit -> unit) -> unit;
      (** [write p f] pins [p] once and runs [f] with a {!blit} into it:
          redo copies all of a page's images in one write, straight from
          the log buffer; undo writes one before image *)
}

type txn_status = Log_record.txn_status = Running | Committed | Prepared

type outcome = {
  winners : int list;  (** committed transactions made durable *)
  losers : int list;  (** active transactions rolled back *)
  in_doubt : (int * int) list;
      (** prepared, awaiting the 2PC coordinator: [(txn, last LSN)] by txn *)
  redone : int;
  undone : int;
}

(** Normal-operation rollback of one transaction: logs ABORT, undoes its
    updates with CLRs, logs END. *)
val rollback_txn : Log.t -> page_io -> txn:int -> last_lsn:int -> int

(** Full restart over a log whose records are all valid (see {!Log}: the
    crash or reopen that precedes a restart checked each CRC once).
    Analysis walks the record frames once from the checkpoint named by
    the log's master record, reading each record's kind, transaction and
    page in place; redo goes page by page over the LSNs analysis found,
    one {!page_io} write per page, blitting each image from the log
    buffer; undo rolls the losers back with CLRs, decoding only the
    records it undoes.

    The records a restart appends come in an order the log defines: the
    winners' End records in ascending transaction id, then the CLRs
    (largest next undo LSN first), then the losers' End records in
    ascending transaction id. *)
val recover : Log.t -> page_io -> outcome
