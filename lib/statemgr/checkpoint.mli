(** Checkpoint snapshots of the state region.

    Every [checkpoint_interval] executed requests a replica snapshots its
    state and exchanges the root digest with its peers; a quorum of
    matching digests makes the checkpoint *stable* and lets the log be
    garbage-collected (§2.1). A snapshot retains full page images so a
    lagging replica can fetch exactly the divergent pages.

    Snapshots are copy-on-write ({!Pages.snapshot}): taking one is
    O(pages dirtied since the last snapshot) rather than O(total state),
    which is what keeps checkpointing — and the undo snapshot guarding
    tentative execution — off the critical path. *)

type t

val take : seqno:int -> Pages.t -> Merkle.t -> t
(** Snapshot the region as of executed sequence number [seqno]; the tree
    must be current for the region (every dirty page folded in). Near-free:
    no page bytes are copied until the live region writes again. *)

val seqno : t -> int
val root : t -> string
(** The Merkle root digest carried in checkpoint messages. *)

val page : t -> int -> string
val merkle : t -> Merkle.t

val divergent_pages : local:Merkle.t -> t -> int list * int
(** Pages where the local tree disagrees with the snapshot, plus tree
    nodes visited (the efficient top-down walk of §2.1). *)

val restore : t -> Pages.t -> Merkle.t -> unit
(** Overwrite the local region and tree with the snapshot's contents
    (full state transfer). The tree must be current for the region, as
    the one given to {!take} was: only the pages where the two trees
    diverge are restored, after which the local tree takes the
    checkpoint tree's digests without hashing a page. *)
