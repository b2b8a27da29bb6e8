(** Node signing identities, in two interchangeable flavours.

    [Real] runs the actual Rabin arithmetic: tests and small examples use
    it to exercise the true code path. [Simulated] produces
    structurally identical, correctly-sized signatures from a keyed hash;
    large throughput experiments use it so that host CPU time is not spent
    on bignum arithmetic that the *virtual* cost model already accounts
    for (DESIGN.md, "Substitutions"). The two modes are indistinguishable
    to the protocol layer. A simulated signer and its {!verifier_of}
    share one prepared {!Hmac.key}; {!verifier_of_string} builds its own. *)

type mode =
  | Real of int (** key size in bits *)
  | Simulated

type signer
type verifier

val make : mode -> Util.Rng.t -> id:int -> signer
(** Create a signing identity for node [id]. *)

val verifier_of : signer -> verifier
(** The public half, distributable to other nodes. *)

val sign : signer -> ?pos:int -> ?len:int -> string -> string
(** Signature bytes over the message, or over its [len] bytes from
    [pos] (default: all of it). *)

val signature_size : signer -> int
(** Bytes per signature (for [Real], a root without leading zero bytes). *)

val verify : verifier -> ?pos:int -> ?len:int -> string -> signature:string -> bool
[@@trust.sanitizer "public-key signature check: true vouches for the signed bytes"]

val verifier_to_string : verifier -> string
(** Wire encoding of the public half, e.g. for Join requests and the
    membership table. *)

val verifier_of_string : string -> verifier option

val derive_session_key : signer -> peer:int -> epoch:int -> Mac.key
(** Deterministic per-epoch MAC session key for the channel this signer
    shares with [peer]: a keyed hash of the signer's signature over the
    (peer, epoch) label, truncated to MAC-key size. Proactive key refresh
    derives epoch [e+1] keys without consuming any simulation randomness,
    keeping refresh-free runs bit-identical. *)

val verifier_id : verifier -> int
[@@detlint.allow unused_export "the verifier codec round-trip test checks the id"]
