(** The append-only log: an in-memory tail over an optional backing file.

    LSNs are byte offsets of records, starting at 1 (0 = "no LSN"). The
    write-ahead contract is the caller's through {!flush}: a page may
    reach disk only once [flushed_lsn] covers its LSN, and commit forces
    the log through the commit record. Forces are counted in {!stats}. *)

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

(** [read t lsn] returns the record at [lsn] and the next record's LSN. *)
val read : t -> int -> Log_record.t * int

(** Iterate records in append order from [from] (default: start). Stops
    silently at a torn record. *)
val iter : ?from:int -> t -> (int -> Log_record.t -> unit) -> unit

val fold : ?from:int -> t -> ('a -> int -> Log_record.t -> 'a) -> 'a -> 'a

(** Crash simulation: lose the unflushed tail, optionally tearing [tear]
    extra bytes off the durable end (a partial sector write); lost bytes
    are zeroed so truncated records fail their CRC. One validating scan
    (CRC only, no decoding) finds what survives. *)
val crash : t -> ?tear:int -> unit -> unit

val close : t -> unit

(** Re-open a backing file after a (real) restart; scans to the first
    torn record and truncates there. *)
val open_existing : string -> t
