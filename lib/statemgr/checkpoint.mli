(** Checkpoint snapshots of the state region.

    Every [checkpoint_interval] executed requests a replica snapshots its
    state and exchanges the root digest with its peers; a quorum of
    matching digests makes the checkpoint *stable* and lets the log be
    garbage-collected (§2.1). A snapshot retains full page images so a
    lagging replica can fetch exactly the divergent pages.

    Snapshots are copy-on-write ({!Pages.snapshot}): taking one copies
    no page bytes. It is O(num_pages) pointer work (every slot is aliased
    and marked shared) plus a copy of the tree's node array, and a page
    is duplicated only when the live region next writes it. That is what
    keeps checkpointing off the critical path.

    The Merkle tree a replica keeps next to its region obeys one
    invariant: {b the tree is current for every page outside
    {!Pages.dirty}}. Folding the dirty pages ({!Merkle.update}) and then
    {!Pages.clear_dirty} keeps it; so does every function here. *)

type t

val take : seqno:int -> Pages.t -> Merkle.t -> t
(** Snapshot the region as of executed sequence number [seqno]; the tree
    must be current for the region (every dirty page folded in). No page
    bytes are copied until the live region writes again; the cost is
    O(num_pages) pointers and one copy of the tree's node array. *)

val seqno : t -> int
val root : t -> string
(** The Merkle root digest carried in checkpoint messages. *)

val page : t -> int -> string
val merkle : t -> Merkle.t

val divergent_pages : local:Merkle.t -> t -> int list * int
[@@detlint.allow unused_export "the top-down walk of the paper's 2.1; the checkpoint tests check it"]
(** Pages where the local tree disagrees with the snapshot, plus tree
    nodes visited (the efficient top-down walk of §2.1). *)

val restore : t -> Pages.t -> Merkle.t -> unit
(** Overwrite the local region and tree with the snapshot's contents
    (full state transfer). The tree must be current for the region, as
    the one given to {!take} was: only the pages where the two trees
    diverge are restored, after which the local tree takes the
    checkpoint tree's digests without hashing a page. *)

(** {2 Speculative undo}

    Tentative execution (§2.2) runs each batch against an undo snapshot
    that a view change may roll back to. An undo never carries a digest,
    so it holds no tree: taking one hashes nothing. *)

type undo
(** A copy-on-write image of the region, without a Merkle tree. *)

val take_undo : Pages.t -> undo
(** Snapshot the region as it is now: O(num_pages) pointer work, no
    hashing and no tree copy. The pages dirty at this point stay dirty;
    the tree need not cover them. *)

val undo_of : t -> undo
(** The checkpoint's page image as an undo (the rollback floor once the
    checkpoint is certified stable). *)

val restore_undo : undo -> Pages.t -> Merkle.t -> unit
(** Roll the region back to the undo: put back exactly the pages whose
    bytes differ from it ({!Pages.restore_changed}), then fold every
    dirty page into the tree and clear the dirty set. The tree must obey
    the invariant above; it holds whatever happened in between, folds
    ({!take} or a {!Merkle.update} followed by {!Pages.clear_dirty})
    included. Afterwards the tree is current for the whole region and
    {!Pages.dirty} is empty. Only dirty pages are hashed; restored
    pages carry frozen buffers, whose digests the leaf memo may already
    hold. *)
