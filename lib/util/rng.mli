(** Deterministic, splittable pseudo-random number generator.

    Every stochastic decision in the simulation (packet loss, latency
    jitter, key generation, workload contents) draws from an explicit
    generator so that a whole experiment is a pure function of its seed.
    The core is the SplitMix64 sequence, which has a cheap, well-understood
    [split] operation for handing independent streams to sub-components. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val gaussian : t -> mean:float -> stdev:float -> float
(** Normally distributed sample (Box–Muller). *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] random bytes. *)
