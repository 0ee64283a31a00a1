(** Write-ahead log records, ARIES-flavoured (Mohan et al. [21]).

    Update records carry physical before/after images of a page byte
    range; compensation records (CLRs) are redo-only with an
    undo-next-LSN; Prepare supports the 2PC participant state. Records
    serialize with a length prefix and CRC so a torn tail is detected
    and discarded on scan. *)

(** The cache's page identity: a record names the page it changes the
    way every other layer does. *)
type page_id = Bess_cache.Page_id.t = { area : int; page : int }

(** A transaction's status as restart analysis tracks it and a
    checkpoint records it. *)
type txn_status = Running | Committed | Prepared

type body =
  | Update of { txn : int; page : page_id; offset : int; before : Bytes.t; after : Bytes.t }
  | Clr of { txn : int; page : page_id; offset : int; image : Bytes.t; undo_next : int }
  | Commit of { txn : int }
  | Abort of { txn : int }
  | End of { txn : int }
  | Prepare of { txn : int; coordinator : int }
  | Decision of { gid : int; participants : (int * int) list }
      (** A 2PC coordinator's force-logged COMMIT decision for global
          transaction [gid], naming every participant as
          [(server endpoint, local txn)]. Presumed abort: abort decisions
          are never logged, so an absent Decision record {e is} the abort
          record. [End { txn = gid }] retires a fully acknowledged
          decision. Lives in coordinator decision logs, never in a data
          server's WAL. *)
  | Begin_checkpoint
  | End_checkpoint of {
      txns : (int * int * txn_status) list;  (** txn, last LSN, status *)
      dirty : (page_id * int) list;  (** page, recovery LSN: the LSN that dirtied it *)
    }

type t = { prev_lsn : int;  (** previous record of the same transaction; 0 = none *) body : body }

val pp : Format.formatter -> t -> unit

(** The record's tag byte, [1..9] in constructor order. *)
val tag_of_body : body -> int

(** Length of the full record image: length prefix, CRC, tag, prev_lsn,
    body. *)
val size : t -> int

(** [encode_into t buf off] writes the full image of [t] at [off]; [buf]
    must have [size t] bytes from [off]. *)
val encode_into : t -> Bytes.t -> int -> unit

(** The full image as fresh bytes. *)
val encode : t -> Bytes.t

exception Torn_record

(** [validate b off] checks the length, CRC and tag of the record at
    [off] without decoding it and returns the tag with the offset of the
    next record; raises {!Torn_record} on truncation, CRC mismatch or an
    unknown tag. *)
val validate : Bytes.t -> int -> int * int

(** [decode b off] parses the record at [off] and returns it with the
    offset of the next record; raises {!Torn_record} on truncation or CRC
    mismatch. *)
val decode : Bytes.t -> int -> t * int
