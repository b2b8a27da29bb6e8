(** Library-level session state (§3.3.2).

    The paper: PBFT "purposely ignores the notion of client-specific
    state", forcing stateful applications to manage session identifiers
    by hand; with dynamic sign-on "a library-level subsystem can be
    developed that will map parts of the state to a specific session".
    This module is that subsystem: a per-client key→value store living in
    its own partition of the replicated state region (so it is
    checkpointed, digested and transferred like everything else), with
    sessions wiped when membership terminates them.

    Deterministic by construction: all mutations happen inside request
    execution, and the serialized image is canonical. *)

open Types

type t

val create : Statemgr.Pages.t -> first_page:int -> pages:int -> t
(** Bind a store to [pages] pages of the region starting at
    [first_page]; reads the existing image if one is present (replica
    restart / state transfer). *)

val get : t -> client:client_id -> key:string -> string option

val set : t -> client:client_id -> key:string -> string -> unit
[@@trust.sink "session-state write into the replicated region"]
(** Raises [Failure] if the partition is full. *)

val remove : t -> client:client_id -> key:string -> unit
[@@trust.sink "session-state removal in the replicated region"]
[@@detlint.allow unused_export "the session-state tests remove single keys"]

val end_session : t -> client:client_id -> unit
(** Drop everything the session stored — invoked by the middleware when a
    membership change terminates the session. *)

val session_keys : t -> client:client_id -> string list
val sessions : t -> client_id list
[@@detlint.allow unused_export "the session-state tests list live sessions"]

val pages_needed : int
(** Suggested partition size (8 pages). *)
