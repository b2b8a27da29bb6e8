(** Online and batch descriptive statistics for experiment metrics. *)

type t
(** Mutable accumulator retaining all samples (experiments are small enough
    that percentiles over the full sample set are affordable). *)

val create : unit -> t
val add : t -> float -> unit
val mean : t -> float

val percentile : t -> float -> float
[@@detlint.allow unused_export "the nearest-rank rule under p50/p95/p99, tested directly"]
(** [percentile t p] with [p] in [0,100], by nearest-rank on the sorted
    samples. Raises [Invalid_argument] on an empty accumulator. *)

val samples : t -> Float.Array.t
(** Every sample, in ascending order (a copy). *)

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float
(** Nearest-rank percentile conveniences for benchmark reporting; unlike
    {!percentile} they return [0.0] on an empty accumulator. *)
