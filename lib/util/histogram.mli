(** Power-of-two bucketed histograms for latencies and sizes. *)

type t

val create : unit -> t

(** The bucket a non-negative sample falls in: the index of its highest
    set bit, 0 for 0 and 1. *)
val bucket_of : int -> int

(** Record one non-negative sample (negatives clamp to 0). *)
val observe : t -> int -> unit

val count : t -> int
val sum : t -> int
val min : t -> int
val max : t -> int
val mean : t -> float

(** [percentile t p] estimates the p-th percentile, [p] in (0, 100],
    by linear interpolation within the containing power-of-two bucket,
    clamped to the observed [min]/[max]. *)
val percentile : t -> float -> int

(** [percentile_of_counts counts p] is the same interpolated estimate
    over a raw bucket-count array sharing the power-of-two boundaries —
    e.g. a per-window bucket delta. 0 when the array is empty. *)
val percentile_of_counts : int array -> float -> int

(** Cumulative [(inclusive_upper_bound, cumulative_count)] pairs up to
    the last non-empty bucket, for Prometheus-style [_bucket] export.
    Empty when no samples were observed. *)
val buckets : t -> (int * int) list

(** A copy of the raw per-bucket counts (63 power-of-two buckets). *)
val raw_buckets : t -> int array

(** Bucketwise sum of [src] into [dst] (exact: shared boundaries). *)
val merge_into : dst:t -> t -> unit

val reset : t -> unit
val pp : Format.formatter -> t -> unit
