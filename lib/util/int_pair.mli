(** Pairs of ints as hash-table keys, without polymorphic hashing or
    comparison. *)

type t = int * int

val equal : t -> t -> bool
val hash : t -> int

module Tbl : Hashtbl.S with type key = t
