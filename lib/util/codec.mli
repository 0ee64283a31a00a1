(** Little-endian fixed-width codecs used by every persistent structure. *)

val get_u8 : Bytes.t -> int -> int
val set_u8 : Bytes.t -> int -> int -> unit
val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int
val set_u32 : Bytes.t -> int -> int -> unit

(** OCaml [int] in 8 bytes (sign-preserving). *)
val get_i64 : Bytes.t -> int -> int

val set_i64 : Bytes.t -> int -> int -> unit

(** [set_string b off s] writes a u32-length-prefixed string and returns the
    offset past it. *)
val set_string : Bytes.t -> int -> string -> int

(** [get_string b off] reads a u32-length-prefixed string, returning it and
    the offset past it. *)
val get_string : Bytes.t -> int -> string * int

(** Encoded size of a length-prefixed string. *)
val string_size : string -> int
