(** MAC authenticators, the PBFT optimization that replaces one public-key
    signature with a vector of per-replica MACs.

    A client (or replica) that shares a symmetric session key with each of
    the [n] replicas authenticates a message by attaching one 8-byte tag
    per replica. Each replica verifies only its own entry. The paper's
    §2.3 documents the robustness consequence: the tags are *transient*
    state, so a restarted replica cannot validate logged requests until
    the periodic authenticator rebroadcast reaches it — we reproduce that
    behaviour in the PBFT layer. *)

type t = { tags : (int * string) list }
(** Association from replica id to its 8-byte tag. *)

val compute : keys:(int * Mac.key) list -> string -> t
(** [compute ~keys msg] builds the tag vector; [keys] maps replica id to
    the session key shared with that replica. *)

val check : key:Mac.key -> replica:int -> ?sender_keys:(int * Mac.key) list -> string -> t -> bool
[@@trust.sanitizer
  "authenticator entry check: true vouches that this replica's tag verifies the payload"]
(** [check ~key ~replica msg t] verifies the tag addressed to [replica];
    false if the entry is missing or does not verify.

    [sender_keys], if given, must be the [keys] that built [t] over
    exactly [msg], as a delivery note ([Pbft.Message.Framed]) records
    them. A tag made there under a key equal to [key] is accepted
    without recomputing it, with the same verdict. *)

val encode : Util.Codec.W.t -> t -> unit

val decode : Util.Codec.R.t -> t
[@@trust.source "authenticator vector parsed from wire bytes"]
