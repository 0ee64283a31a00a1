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

(** Length of the full record image: length prefix, CRC, tag, prev_lsn,
    body. *)
val size : t -> int

(** The size of the smallest record. *)
val min_size : int

(** [encode_into t buf off] writes the full image of [t] at [off]; [buf]
    must have [size t] bytes from [off]. *)
val encode_into : t -> Bytes.t -> int -> unit

(** The full image as fresh bytes. *)
val encode : t -> Bytes.t

exception Torn_record

(** [validate b off] checks the length, CRC and tag of the record at
    [off] without decoding it and returns the offset of the next record;
    raises {!Torn_record} on truncation, CRC mismatch or an unknown tag. *)
val validate : Bytes.t -> int -> int

(** [decode b off] checks the record at [off] as {!validate} does, parses
    it and returns it with the offset of the next record; raises
    {!Torn_record} where {!validate} would. For untrusted bytes. *)
val decode : Bytes.t -> int -> t * int

(** Readers of a record image at [off] in [b] that is already known to be
    whole and valid, such as any record of a {!Log}. They read the
    fixed-offset fields the encoder writes, in place, check no CRC, and
    allocate nothing but {!page}'s record. *)
module Frame : sig
  (** The record's constructor, from its tag byte. *)
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

  (** Bytes the record spans: {!size} of the record. *)
  val size : Bytes.t -> int -> int

  val kind : Bytes.t -> int -> kind
  val prev_lsn : Bytes.t -> int -> int

  (** The transaction of an Update, Clr, Commit, Abort, End or Prepare;
      a Decision's gid. *)
  val txn : Bytes.t -> int -> int

  (** An Update's or Clr's page as {!Bess_cache.Page_id.to_key} packs it. *)
  val page_key : Bytes.t -> int -> int

  (** An Update's or Clr's page (a fresh record). *)
  val page : Bytes.t -> int -> page_id

  (** The page offset an Update's or Clr's images start at. *)
  val offset : Bytes.t -> int -> int

  (** A Decision's participant count. *)
  val n_participants : Bytes.t -> int -> int

  (** [participant_shard b off i] and [participant_txn b off i]: the
      [i]-th participant of a Decision, [0 <= i <] {!n_participants}. *)
  val participant_shard : Bytes.t -> int -> int -> int

  val participant_txn : Bytes.t -> int -> int -> int

  (** Where in [b] the image that redo repeats starts, and its length:
      an Update's after image, a Clr's image. Raises [Invalid_argument]
      for any other kind. *)
  val redo_pos : Bytes.t -> int -> int

  val redo_len : Bytes.t -> int -> int
end

(** [decode_frame b off] parses a valid record image (see {!Frame})
    without checking it. *)
val decode_frame : Bytes.t -> int -> t
