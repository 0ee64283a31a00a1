(** Named event counters reported alongside benchmark timings. *)

type t

val create : unit -> t
val incr : t -> string -> unit
val add : t -> string -> int -> unit

(** [get t name] is 0 for counters never touched. *)
val get : t -> string -> int

(** A handle on one named counter of a [t], for hot paths: the name is
    resolved on the first {!bump}, after which a bump is one increment.
    The handle survives {!reset}; until its first bump it adds no key, so
    an untouched counter stays out of {!to_list}. *)
type counter

val counter : t -> string -> counter
val bump : counter -> unit

(** [bump_by c n] is [add t name n] for the handle's counter. *)
val bump_by : counter -> int -> unit

(** [value c] is [get t name] for the handle's counter. *)
val value : counter -> int

(** [assign c v] sets the handle's counter to [v], for a high-water
    mark. *)
val assign : counter -> int -> unit

(** Labeled counters: one counter per (name, label) pair, stored under
    the prometheus-style key [name{label}]. *)
val incr_labeled : t -> string -> label:string -> unit

(** A {!counter} handle on the labeled counter [name{label}]. *)
val labeled_counter : t -> string -> label:string -> counter

val get_labeled : t -> string -> label:string -> int

(** [histogram t name] is the named distribution, created empty on first
    use (call it at construction time to make the histogram visible in
    snapshots before any sample arrives). *)
val histogram : t -> string -> Histogram.t

(** [observe t name v] records one sample into the named histogram. *)
val observe : t -> string -> int -> unit

(** A handle on one named histogram of a [t], resolved on the first
    {!record} like a {!counter}: until then it adds no key, so an
    untouched histogram stays out of {!histograms}. *)
type hist

val hist : t -> string -> hist

(** [record h v] is [observe t name v] for the handle's histogram. *)
val record : hist -> int -> unit

val find_histogram : t -> string -> Histogram.t option

(** Sorted [(name, histogram)] list. *)
val histograms : t -> (string * Histogram.t) list

(** Reset all counters to 0 and empty all histograms. *)
val reset : t -> unit

(** Sorted [(name, value)] snapshot of the counters. *)
val to_list : t -> (string * int) list

val pp : Format.formatter -> t -> unit

(** Sum all counters and merge all histograms of [src] into [dst]. *)
val merge_into : dst:t -> t -> unit
