(** A set of pairs of small non-negative ints, such as the
    [(shard, txn)] participants of 2PC decisions, held flat: each pair
    is packed by {!Int_map.pack} into one int array under open
    addressing with linear probing. Adding a pair allocates nothing but
    the array's doubling, and {!clear} keeps the array.

    [hi] ranges over [\[0, 2^30)] and [lo] over [\[0, 2^32)], so the
    packed key is a non-negative 63-bit int. *)

type t

(** [create n] is an empty set with room for [n] pairs before it grows. *)
val create : int -> t

(** [add t hi lo] adds the pair. Raises [Invalid_argument] if [hi] lies
    outside [\[0, 2^30)] or [lo] outside [\[0, 2^32)]. *)
val add : t -> int -> int -> unit

(** [mem t hi lo]: whether the pair was added since the last {!clear}.
    A pair {!add} would refuse is never a member. *)
val mem : t -> int -> int -> bool

(** Pairs in the set. *)
val cardinal : t -> int

(** Slots in the array: at least twice {!cardinal}. *)
val capacity : t -> int

(** Empty the set in place; the capacity stays. *)
val clear : t -> unit
