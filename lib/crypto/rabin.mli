(** Rabin signature scheme over our bignum substrate.

    The PBFT code base ships an implementation of the Rabin cryptosystem
    for its asymmetric operations; we reproduce the scheme: the public key
    is a modulus [n = p·q] with [p ≡ q ≡ 3 (mod 4)], signing computes a
    modular square root of a hash of the message (retrying a counter until
    the hash is a quadratic residue), and verification squares the root.
    Verification is roughly the cost of one modular multiplication while
    signing costs two modular exponentiations — the same asymmetry that
    makes MAC authenticators so attractive in the paper's Table 1. *)

type keypair
type public_key

type signature = { counter : int; root : Bignum.Nat.t }

val generate : Util.Rng.t -> bits:int -> keypair
(** [generate rng ~bits] makes a key whose primes have [bits/2] bits each.
    512-bit keys are ample for the simulation and keep tests fast. *)

val public : keypair -> public_key

val sign : keypair -> string -> signature
(** Sign an arbitrary message (it is hashed internally). *)

val verify : public_key -> string -> signature -> bool

val signature_to_string : signature -> string
(** Wire encoding; the byte length feeds the network size model. *)

val signature_of_string : string -> signature option

val public_to_string : public_key -> string
val public_of_string : string -> public_key option
