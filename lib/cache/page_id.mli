(** Identity of a database page: storage area plus page number. *)

type t = { area : int; page : int }

val make : area:int -> page:int -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

(** Pack into / unpack from a single int ([area] in the high bits), for
    key-typed consumers below the cache in the dependency order, e.g.
    the {!Bess_obs.Mrc}/{!Bess_obs.Heat} sketches. *)
val to_key : t -> int

(** [key ~area ~page] is [to_key (make ~area ~page)], built without the
    record. *)
val key : area:int -> page:int -> int

val of_key : int -> t

module Tbl : Hashtbl.S with type key = t
