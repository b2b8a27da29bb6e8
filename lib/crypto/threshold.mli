(** (k, n) threshold RSA signatures with a trusted dealer, in the style of
    Shoup's "Practical Threshold Signatures".

    §3.3.1 of the paper proposes an (f+1, 3f+1) threshold signature
    scheme so that no single replica (even a Byzantine primary) ever
    holds the service's signing key. This module implements the signing
    arithmetic for real: safe-prime RSA modulus, the secret exponent
    Shamir-shared modulo m = p'q', partial signatures x^{2Δs_i}, integer
    Lagrange combination, and the Bezout extraction of a standard RSA
    signature. The dealer is trusted (no distributed key generation) and
    partial signatures carry no correctness proofs — the two
    simplifications relative to Shoup are documented in DESIGN.md. *)

type public
(** Public key: modulus, public exponent, group size and threshold. *)

type share
(** One party's secret share of the signing exponent. *)

type partial = { party : int; value : Bignum.Nat.t }
(** A partial signature contributed by one party. *)

val deal : Util.Rng.t -> bits:int -> threshold:int -> parties:int -> public * share list
(** [deal rng ~bits ~threshold ~parties] generates a fresh key whose safe
    primes have [bits/2] bits, and deals one share per party. Any
    [threshold] partial signatures combine into a full signature. *)

val partial_sign : public -> share -> string -> partial
(** Deterministic partial signature on (the hash of) a message. *)

val combine : public -> string -> partial list -> Bignum.Nat.t option
(** Combine at least [threshold] partials (distinct parties) into a full
    signature; [None] if too few or if the result fails verification
    (which reveals that some partial was corrupt). *)

val verify : public -> string -> Bignum.Nat.t -> bool
[@@trust.sanitizer
  "threshold RSA verification: true vouches that f+1 shareholders signed the message"]
(** Standard RSA verification: [s^e = H(msg)² (mod n)]. *)

(** {2 Wire encodings} (for embedding in protocol messages) *)

val partial_to_string : partial -> string

val partial_of_string : string -> partial option
[@@trust.source "threshold partial signature parsed from wire bytes"]

val signature_to_string : Bignum.Nat.t -> string

val signature_of_string : string -> Bignum.Nat.t option
[@@trust.source "threshold signature parsed from wire bytes"]
