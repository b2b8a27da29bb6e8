(** Shamir secret sharing over a prime field.

    §3.3.1 of the paper proposes an (f+1, n) threshold signature scheme
    as the remedy for PBFT's weak support for strong cryptography (a
    Byzantine primary choosing "random" values); this module provides the
    secret-sharing layer under {!Threshold}. *)

type share = { index : int; value : Bignum.Nat.t }
(** Share [f(index)] of the dealt polynomial; indices are 1-based. *)

val split :
  Util.Rng.t -> field:Bignum.Nat.t -> threshold:int -> shares:int -> Bignum.Nat.t -> share list
(** [split rng ~field ~threshold ~shares secret] deals [shares] shares of
    [secret] such that any [threshold] of them reconstruct it and fewer
    reveal nothing. [field] must be a prime larger than [shares] and the
    secret. Raises [Invalid_argument] on bad parameters. *)

val combine : field:Bignum.Nat.t -> share list -> Bignum.Nat.t
[@@detlint.allow unused_export "the reconstruction oracle for the split tests"]
(** Lagrange interpolation at zero. The list must contain at least
    [threshold] distinct shares; extra shares are harmless. *)
