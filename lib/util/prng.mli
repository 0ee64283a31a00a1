(** Deterministic splitmix64 pseudo-random streams.

    All workload generators in the repository use this module instead of
    [Random] so that every benchmark and test is reproducible from its
    seed. *)

type t

(** [create seed] returns a fresh stream fully determined by [seed]. *)
val create : int -> t

(** [copy t] duplicates the stream state; the copy evolves independently. *)
val copy : t -> t

(** [split t] derives an independent child stream and advances [t]. *)
val split : t -> t

(** Next non-negative int (62 bits). *)
val next_int : t -> int

(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] is uniform in [lo, hi] inclusive. *)
val int_in_range : t -> lo:int -> hi:int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

val bool : t -> bool

(** [bytes t n] is [n] uniform random bytes. *)
val bytes : t -> int -> Bytes.t

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** The inverted CDF of Zipf([theta]) over ranks [0, n): O(n) to build,
    shared by every stream that draws through it. *)
type zipf_table

val zipf_table : n:int -> theta:float -> zipf_table

(** [zipf_draw t table]: one Zipf-distributed rank; rank 0 is the
    hottest. *)
val zipf_draw : t -> zipf_table -> int

(** [zipf t ~n ~theta] builds a sampler of Zipf-distributed ranks in
    [0, n) drawing from [t]. [theta = 0.] degenerates to uniform. *)
val zipf : t -> n:int -> theta:float -> unit -> int
