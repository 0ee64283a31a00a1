(** ARIES recovery: analysis, redo ("repeat history"), undo with CLRs
    (section 3: "recovery is based on an ARIES-like [21] write-ahead log
    protocol").

    Written against an abstract page store so it drives both the real
    cache/storage stack and the fake stores in tests. Prepared (2PC)
    transactions survive restart as in-doubt. *)

(** The page operations recovery needs. Page LSNs may be volatile (redo
    of physical images is idempotent from 0). *)
type page_io = {
  page_lsn : Log_record.page_id -> int;
  write : Log_record.page_id -> lsn:int -> offset:int -> Bytes.t -> unit;
      (** apply the image of record [lsn] at [offset]; [lsn] becomes the
          page LSN *)
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

(** Full restart: analysis in one pass from the checkpoint named by the
    log's master record, redo page by page of the LSNs analysis found
    (one {!Log.read} per record redone), undo of losers. *)
val recover : Log.t -> page_io -> outcome
