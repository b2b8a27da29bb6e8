(** Short message-authentication codes in the style of the UMAC32 tags the
    PBFT code base uses: 8-byte truncations of HMAC-SHA256. Authenticators
    (one such tag per replica) are built from these. *)

type key = string
(** Symmetric key; any length (hashed into the HMAC block). *)

val tag_size : int
[@@detlint.allow unused_export "the MAC tests check tag lengths against it"]
(** 8 bytes. *)

val compute : key:key -> string -> string
(** [compute ~key msg] is the 8-byte tag. *)

val verify : key:key -> string -> tag:string -> bool
[@@trust.sanitizer "MAC tag check: true vouches that the message bytes were keyed by the peer"]

val fresh_key : Util.Rng.t -> key
(** 16 random bytes. *)
