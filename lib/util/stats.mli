(** Online and batch descriptive statistics for experiment metrics. *)

type t
(** Mutable accumulator retaining all samples (experiments are small enough
    that percentiles over the full sample set are affordable). *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
val stdev : t -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples. *)

val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0,100], by nearest-rank on the sorted
    samples. Raises [Invalid_argument] on an empty accumulator. *)

val median : t -> float

val samples : t -> Float.Array.t
(** Every sample, in ascending order (a copy). *)

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float
(** Nearest-rank percentile conveniences for benchmark reporting; unlike
    {!percentile} they return [0.0] on an empty accumulator. *)

val summary : t -> string
(** One-line rendering: count, mean, stdev, min/median/max. *)
