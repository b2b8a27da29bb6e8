(** Short message-authentication codes in the style of the UMAC32 tags the
    PBFT code base uses: 8-byte truncations of HMAC-SHA256. Authenticators
    (one such tag per replica) are built from these. *)

type key
(** Symmetric key: its bytes (any length) and the HMAC midstates it
    prepares on first use (see {!Hmac.key}). *)

val key_of_bytes : string -> key

val key_bytes : key -> string
(** What a session-key box carries. *)

val equal_key : key -> key -> bool
(** Same key bytes. *)

val tag_size : int
(** 8 bytes. *)

val compute : key:key -> ?pos:int -> ?len:int -> string -> string
(** [compute ~key msg] is the 8-byte tag; [~pos ~len] tag that slice of
    [msg] instead (default: all of it), as {!Hmac.mac}. *)

val verify : key:key -> ?pos:int -> ?len:int -> string -> tag:string -> bool
[@@trust.sanitizer "MAC tag check: true vouches that the message bytes were keyed by the peer"]

val fresh_key : Util.Rng.t -> key
(** 16 random bytes. *)
