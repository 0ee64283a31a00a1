(** The program's one JSON codec: every artifact is built as a {!t} and
    printed by {!to_string}, and read back by {!parse}. Hand-rolled — the
    repo takes no JSON dependency.

    A number keeps its literal text ([Num "0.250"]): {!int} and {!fixed}
    build the artifacts' integers and fixed-decimal figures, the reader
    keeps the lexeme it parsed, and {!to_int}/{!to_float} convert on
    read, so [parse (to_string v) = Ok v] whenever [v]'s numbers are
    JSON number literals. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** the number's literal text *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [int n] is [n] in decimal ([%d]). *)
val int : int -> t

(** [fixed d f] is [f] with [d] decimals ([%.*f]). *)
val fixed : int -> float -> t

(** Compact JSON text, members in list order. Strings escape quote,
    backslash, newline and tab with their short escapes and every other
    control byte as [\u00XX]; bytes from 0x7f up pass through. *)
val to_string : t -> string

exception Parse_error of string

(** Parse one JSON value (RFC 8259 numbers; [\u] takes exactly four hex
    digits; surrounding whitespace allowed). *)
val parse : string -> (t, string) result

val parse_exn : string -> t

(** [member name j] is the field [name] of object [j], if any. *)
val member : string -> t -> t option

val to_list : t -> t list option
val to_float : t -> float option

(** [to_int] succeeds only on numbers with no fractional part. *)
val to_int : t -> int option

val to_obj : t -> (string * t) list option

(** Field accessors with defaults: [get_string j name] is [""] (or
    [default]) when the field is missing or not a string, and likewise
    for [get_int] (0) and [get_list] ([]). *)
val get_string : ?default:string -> t -> string -> string

val get_int : ?default:int -> t -> string -> int
val get_list : t -> string -> t list
