(** Very large objects: the class interface of section 2.1.

    Objects past the transparent 64KB limit — or built incrementally by
    appends — are manipulated through {!Bess_largeobj.Lob}'s byte-range
    interface. The BeSS object itself is a small descriptor naming the
    *overflow segment* that stores the encoded tree root ("the root of
    the tree is placed in the overflow segment"). Descriptor updates are
    ordinary transactional object writes; the bulk byte traffic takes the
    non-logged blob path (see DESIGN.md §7). Compression hooks plug in
    per object via {!Bess_largeobj.Lob.set_codec}. *)

(** [create db session seg] makes an empty very large object in [seg]:
    returns its slot address and the open Lob. Call {!save} after
    populating. *)
val create : Db.t -> Session.t -> Session.seg_rt -> int * Bess_largeobj.Lob.t

(** Re-open the Lob behind a very large object's slot address. *)
val open_ : Db.t -> Session.t -> int -> Bess_largeobj.Lob.t

(** Persist the (possibly restructured) tree root back into the overflow
    segment, reallocating it when the tree outgrew it. *)
val save : Db.t -> Session.t -> int -> Bess_largeobj.Lob.t -> unit

(** Free the data segments, the overflow segment, and the descriptor
    object. *)
val destroy : Db.t -> Session.t -> int -> unit
