(** HMAC-SHA256 (RFC 2104). *)

type key
(** Key bytes (any length) plus the two HMAC midstates every tag under
    the key starts from, hashed the first time the key MACs. *)

val key : string -> key

val key_bytes : key -> string

val mac : key:key -> string -> string
(** 32-byte authentication tag. *)
