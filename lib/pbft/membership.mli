(** Dynamic client membership (§3.1).

    Client entries live logically in the replicated state: every mutation
    is applied at request-execution time (so all replicas agree), and the
    table serializes into the middleware's partition of the state region
    so that checkpoints digest it and state transfer restores it.

    The redirection table maps an arbitrary external client identifier to
    the node-table slot, so an incoming request is dismissed cheaply when
    its identifier is unknown, before any signature work. Joins carry an
    application identification buffer; the application maps it to an
    identity, and the middleware guarantees a single live session per
    identity by terminating older ones. When the table is full, sessions
    idle longer than the staleness threshold (by primary-clock time) are
    cleaned up; if none are stale the join is denied. *)

open Types

type entry = {
  me_client : client_id;
  me_addr : int;  (** network address *)
  me_pubkey : string;  (** wire encoding of the client's verifier *)
  mutable me_last_active : float;
      (** primary-clock time of last executed request. Update only via
          {!touch} — the staleness agenda is keyed by this value, so a
          direct write would desynchronize O(stale) cleanup. *)
  me_identity : string option;  (** application identity (dynamic joins only) *)
}

type t

val create : max_clients:int -> t

val populate_static : t -> (client_id * int * string) list -> unit
(** Install the a-priori client table of a static deployment
    [(client, addr, pubkey)]. *)

val lookup : t -> client_id -> entry option
(** The redirection-table lookup performed on every incoming request. *)

val lookup_addr : t -> int -> client_id option

type join_outcome =
  | Joined of { client : client_id; terminated : client_id list }
  | Table_full

val join :
  t -> addr:int -> pubkey:string -> identity:string -> now:float -> stale_threshold:float ->
  join_outcome
[@@trust.sink "membership-table mutation (client admission)"]
(** Deterministic join executed as an ordered system request; [now] is the
    primary's request timestamp, not local time. *)

val leave : t -> client_id -> bool
[@@trust.sink "membership-table mutation (client removal)"]
val touch : t -> client_id -> float -> unit
(** Record request execution time for staleness accounting. O(log n):
    repositions the entry in the last-active agenda that {!join}'s
    stale cleanup pops from. *)

val count : t -> int
val capacity : t -> int
val clients : t -> client_id list

val serialize : t -> string
(** Canonical encoding written into the state region after mutations. *)

val load : t -> string -> unit
[@@trust.sink "membership-table replacement from a serialized image"]
(** Replace the table contents from a serialized image (state transfer). *)
