(** Hash tables keyed by ints, hashed by {!mix}. *)

(** The one integer hash: multiply by a large odd constant, then fold
    the product's high half into its low bits. Non-negative. Tables
    keyed by records or pairs of ints mix their fields with it. *)
val mix : int -> int

include Hashtbl.S with type key = int
