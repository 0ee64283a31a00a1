(** Byte-range diffing of page images.

    Client-cached transactions ship physical update records at commit:
    each dirty page's before-image (captured at its first write fault) is
    diffed against its current content. Nearby changed runs coalesce so a
    scattered field update does not explode into many tiny log records. *)

type range = { offset : int; before : Bytes.t; after : Bytes.t }

(** [ranges ~before ~after ()] lists the changed ranges; runs separated by
    fewer than [gap] (default 32) unchanged bytes merge. Raises
    [Invalid_argument] if the images differ in length. *)
val ranges : ?gap:int -> before:Bytes.t -> after:Bytes.t -> unit -> range list

(** [apply base rs] returns a copy of [base] with every range's [after]
    written — reconstructs the after image from the before image. *)
val apply : Bytes.t -> range list -> Bytes.t
