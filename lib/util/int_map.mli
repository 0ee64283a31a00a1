(** A map from non-negative ints to ints, held flat: open addressing
    with linear probing over one int array of (key, value) slots, hashed
    by {!Int_tbl.mix}, at most half full, with backward-shift deletion.
    Nothing is allocated but the array's doubling, so a map created
    with room for all its bindings never allocates again. *)

type t

(** [pack hi lo] is the pair as one non-negative key, [hi lsl 32 lor
    lo]: the one key every table on a pair of ints uses (routes, wire
    clients, segments, 2PC decisions). [hi] ranges over [\[0, 2^30)] and
    [lo] over [\[0, 2^32)], so distinct pairs get distinct keys. Raises
    [Invalid_argument] for any component out of range, rather than
    letting it alias another pair. *)
val pack : int -> int -> int

(** [create n] is an empty map with room for [n] bindings before it
    grows. *)
val create : int -> t

(** Bindings in the map. *)
val length : t -> int

(** Slots in the array: a power of two, at least twice {!length}. *)
val capacity : t -> int

(** [find t k] is the value bound to [k], or [-1] if there is none
    (every map here binds non-negative values, so [-1] is never one).
    A negative [k] is never bound. *)
val find : t -> int -> int

val mem : t -> int -> bool

(** [replace t k v] binds [k] to [v], replacing any earlier binding.
    Raises [Invalid_argument] if [k] is negative. *)
val replace : t -> int -> int -> unit

(** [remove t k] drops [k]'s binding, if any. *)
val remove : t -> int -> unit

(** [fold f t acc] folds over the bindings in slot order, which no
    caller may depend on. *)
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
