(** SHA-256, implemented from scratch (FIPS 180-4).

    The paper's PBFT code base uses MD5 for digests; we substitute SHA-256
    (see DESIGN.md) — the digest's role (request identity, Merkle hashing,
    checkpoint digests) only needs collision resistance. *)

val digest : string -> string
(** [digest msg] is the 32-byte SHA-256 of [msg]. *)

type ctx
(** Streaming interface for hashing large state pages without copying. *)

val init : unit -> ctx

val copy : ctx -> ctx
[@@detlint.allow unused_export "midstate branching, checked against the reference compression loop"]
(** A fresh context in the same running state — lets a caller branch
    several messages off one hashed prefix. *)

val copy_into : ctx -> dst:ctx -> unit
(** [copy_into src ~dst] puts [dst] in [src]'s running state without
    allocating, so a caller can restore a cached midstate into one
    reused working context. [src] is unchanged. *)

val reset : ctx -> unit
(** Return a context to the initial state, so one context can hash many
    messages in turn without allocating. *)

val feed : ctx -> string -> unit
val feed_bytes : ctx -> bytes -> pos:int -> len:int -> unit
val finalize : ctx -> string

val bytes_hashed : unit -> int
(** Host-side instrumentation: total message bytes hashed process-wide
    since startup (across all contexts). Monotone; sample before/after a
    workload and subtract. *)
