(** Arbitrary-precision natural numbers.

    Little-endian limb arrays in base 2^26 so that limb products and the
    intermediate quantities of Knuth's Algorithm D stay comfortably inside
    OCaml's 63-bit native integers. Values are immutable and kept
    normalized (no high zero limbs); the zero value has no limbs.

    This is the arithmetic substrate for the Rabin–Williams signature
    scheme in {!Crypto.Rabin} — the paper's PBFT implementation uses the
    Rabin cryptosystem for its asymmetric operations. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] for [n >= 0]. Raises [Invalid_argument] on negatives. *)

val to_int : t -> int
(** Raises [Failure] if the value exceeds [max_int]. *)

val of_bytes_be : string -> t
(** Big-endian byte-string interpretation (leading zeros allowed). *)

val to_bytes_be : ?pad:int -> t -> string
(** Minimal big-endian bytes, left-padded with zeros to [pad] if given. *)

val of_hex : string -> t
[@@detlint.allow unused_export "the bignum tests write their vectors in hex"]
val to_hex : t -> string
[@@detlint.allow unused_export "the bignum tests compare values in hex"]

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool
val bit_length : t -> int
[@@detlint.allow unused_export "arithmetic primitive that the bignum tests check directly"]

val add : t -> t -> t
val sub : t -> t -> t
(** Raises [Invalid_argument] if the result would be negative. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
[@@detlint.allow unused_export "arithmetic primitive that the bignum tests check directly"]
(** [divmod a b = (q, r)] with [a = q*b + r], [0 <= r < b].
    Raises [Division_by_zero] if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val mod_add : t -> t -> t -> t
val mod_sub : t -> t -> t -> t
val mod_mul : t -> t -> t -> t
val mod_exp : t -> t -> t -> t
(** [mod_exp b e m] is [b^e mod m] by square-and-multiply. *)

val gcd : t -> t -> t
[@@detlint.allow unused_export "arithmetic primitive that the bignum tests check directly"]
val mod_inverse : t -> t -> t option
(** Multiplicative inverse, if the argument is coprime to the modulus. *)

val random_bits : Util.Rng.t -> int -> t
(** Uniform value of at most the given number of bits. *)

val random_below : Util.Rng.t -> t -> t
(** Uniform in [0, bound); [bound] must be nonzero. *)
