(** Online miss-ratio-curve estimation from spatially-sampled reuse
    distances (SHARDS, Waldspurger et al., FAST'15).

    Keys are hash-filtered at rate R = 2^-[rate_bits]: a tracked key has
    *every* access observed, so LRU stack distances within the sampled
    universe are exact and a sampled distance d estimates a true
    distance d/R. The sampled stack costs O(tracked keys) memory and one
    O(log n) Fenwick probe per sampled access; unsampled accesses cost
    one hash. The distance histogram is the miss-ratio curve at every
    cache size simultaneously.

    Fully deterministic: the filter is a pure function of the key, so
    the same access sequence yields the same curve byte for byte.
    [rate_bits = 0] tracks everything (exact Mattson distances) — used
    by the unit tests to validate against a brute-force stack. *)

type t

(** [create ~rate_bits ()] samples keys at rate 2^-[rate_bits]
    (default 4, i.e. 1/16). *)
val create : ?rate_bits:int -> unit -> t

(** [access t key] observes one cache access (hit or miss alike — the
    curve is about the access stream, not the cache's current size). *)
val access : t -> int -> unit

val rate_bits : t -> int

(** All accesses observed, sampled or not. *)
val n_total : t -> int

(** Accesses that passed the spatial filter. *)
val n_sampled : t -> int

(** Distinct keys currently on the sampled stack. *)
val tracked_keys : t -> int

(** Predicted LRU hit rate (0..1) at a cache of [size] pages, with the
    SHARDS-adj small-sample correction. *)
val predicted_hit_rate : t -> size:int -> float

(** [(size, hit rate)] at sizes 1, 2, 4, ... up to [max_size]. *)
val curve : t -> max_size:int -> (int * float) list

(** One deterministic JSON object: counters plus the curve at power-of-
    two sizes up to [max_size] (default 2^20). *)
val json_of : ?max_size:int -> t -> Json.t

(** CRC-32 of {!json_of}'s text — the determinism gate's digest. *)
val fingerprint : t -> int
