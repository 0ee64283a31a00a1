(** The append-only log: an in-memory tail over an optional backing file.

    LSNs are byte offsets of records, starting at 1 (0 = "no LSN"). The
    write-ahead contract is the caller's through {!flush}: a page may
    reach disk only once [flushed_lsn] covers its LSN, and commit forces
    the log through the commit record. Forces are counted in {!stats}.

    Invariant: every byte in [\[0, size_bytes)] belongs to a whole, valid
    record. Either {!append} encoded it, or the validating scan of
    {!crash} or {!open_existing} checked its CRC; that scan is the only
    CRC check a restart makes. So the readers below never check a CRC:
    they read records where they lie, through {!Log_record.Frame}. *)

type t

val create : ?path:string -> unit -> t
val stats : t -> Bess_util.Stats.t

(** LSN of the last appended record (0 when empty). *)
val last_lsn : t -> int

(** The master record: begin and end LSNs of the last complete
    checkpoint, kept current by {!append} and rebuilt by {!crash} and
    {!open_existing}. *)
val master : t -> (int * int) option

(** Highest LSN guaranteed durable. *)
val flushed_lsn : t -> int

val size_bytes : t -> int

(** Append a record; returns its LSN. Volatile until flushed. *)
val append : t -> Log_record.t -> int

(** Force the log through [lsn] (default: everything). No-op when already
    durable. *)
val flush : t -> ?lsn:int -> unit -> unit

(** [read t lsn] decodes the record at [lsn] and returns it with the next
    record's LSN. Raises [Invalid_argument] unless [lsn] lies in the
    log. *)
val read : t -> int -> Log_record.t * int

(** The buffer holding the records, for the {!Log_record.Frame} readers.
    Valid until the next {!append}, which may replace it. *)
val buffer : t -> Bytes.t

(** [frame_offset t lsn] is where the record at [lsn] starts in
    {!buffer}. Raises [Invalid_argument] unless [lsn] lies in the log. *)
val frame_offset : t -> int -> int

(** [iter_frames ?from ?until t f] calls [f lsn buf off] for each record
    in append order, from LSN [from] (default: the start) to before LSN
    [until] (default: the end), where the record at [lsn] starts at
    [off] in [buf]. Decodes nothing. Raises [Invalid_argument] on a frame
    shorter than {!Log_record.min_size} or running past the end, which
    the invariant rules out. *)
val iter_frames : ?from:int -> ?until:int -> t -> (int -> Bytes.t -> int -> unit) -> unit

(** Iterate decoded records in append order from [from] (default: start),
    over {!iter_frames}. *)
val iter : ?from:int -> t -> (int -> Log_record.t -> unit) -> unit

val fold : ?from:int -> t -> ('a -> int -> Log_record.t -> 'a) -> 'a -> 'a

(** Crash simulation: lose the unflushed tail, optionally tearing [tear]
    extra bytes off the durable end (a partial sector write); the lost
    bytes are zeroed so truncated records fail their CRC. One validating
    scan (CRC only, no decoding) finds what survives. *)
val crash : t -> ?tear:int -> unit -> unit

val close : t -> unit

(** Re-open a backing file after a (real) restart; the validating scan
    stops at the first torn record, and the file is truncated there. *)
val open_existing : string -> t
