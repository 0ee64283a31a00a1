(** Values under non-negative int keys, append-only: an {!Int_map} from
    each key to its value's index in one growable array, indices in the
    order the keys are added. A lookup allocates nothing. *)

type 'a t

(** [create n] has room for [n] keys before its map grows. *)
val create : int -> 'a t

val length : 'a t -> int

(** [index t k] is [k]'s index, or [-1] if [k] was never added. *)
val index : 'a t -> int -> int

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

(** [add t k v] puts [v] at index {!length} under the new key [k].
    Raises [Invalid_argument] if [k] is negative or already added. *)
val add : 'a t -> int -> 'a -> unit
