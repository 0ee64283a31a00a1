(** Lock modes and their compatibility/supremum algebra (section 3:
    strict two-phase locking; intention modes for the hierarchy). *)

type t = IS | IX | S | SIX | X

val all : t list
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** The standard compatibility matrix (symmetric). *)
val compatible : t -> t -> bool

(** Least upper bound in the lattice IS < IX,S < SIX < X. *)
val sup : t -> t -> t

(** [covers held want]: does holding [held] satisfy a request for
    [want]? *)
val covers : t -> t -> bool

(** The mode [id] holds in a holder list of [(id, mode)] pairs (a lock
    entry's granted set, a callback entry's cached copies), if any. *)
val holder_mode : int -> (int * t) list -> t option

(** The holder list without [id]'s pair. *)
val remove_holder : int -> (int * t) list -> (int * t) list
