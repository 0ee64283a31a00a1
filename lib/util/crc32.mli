(** CRC-32 (IEEE) checksums for log records and superblocks. *)

(** [update crc b off len] extends a running checksum over bytes
    [off .. off + len - 1] of [b]. Start from [0l]. Raises
    [Invalid_argument] unless [0 <= off], [0 <= len] and
    [off + len <= Bytes.length b]. *)
val update : int32 -> Bytes.t -> int -> int -> int32

(** Checksum of a byte range (whole buffer by default). *)
val bytes : ?off:int -> ?len:int -> Bytes.t -> int32

val string : string -> int32

(** Checksum as a non-negative [int] suitable for {!Codec.set_u32}. *)
val to_int : int32 -> int
