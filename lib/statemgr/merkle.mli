(** Merkle hash tree over the state pages (§2.1).

    Leaves are page digests; inner nodes hash their children; the root
    digest uniquely identifies the whole region and is what checkpoint
    messages carry. After execution only dirty pages' leaves and their
    root paths are recomputed. An out-of-sync replica walks the tree
    top-down against a peer's to locate the (hopefully few) divergent
    pages for retransmission.

    Page bytes are hashed in place through the streaming SHA-256
    interface (no per-page string copies), and a tree hashes the all-zero
    page of a sparse region once, the first time it needs that digest
    ({!copy} inherits it) — the preimages, and therefore every digest,
    are unchanged.

    No frozen page is hashed twice. A page buffer that a region shares
    (with a snapshot, a {!Pages.copy} or another region through
    {!Pages.alias_pages}) is frozen: [Pages] duplicates a shared buffer
    before any write to it, on either side, so its bytes never change
    again. A leaf digest computed from a buffer read through
    {!Pages.frozen_page_bytes} is therefore memoized on the buffer's
    physical identity, in a direct-mapped table indexed by page number.
    Every replica's pages alias one boot image, so the genesis trees of
    a cluster hash that image once; pages installed by
    {!Pages.restore_page} are covered too. An unshared buffer is hashed
    each time. *)

type t

val build : Pages.t -> t
(** Hash every page, then every inner node, except that a run of
    identical subtrees (untouched zero pages, the filler past the last
    page) hashes its common node once. *)

val update : t -> Pages.t -> int list -> unit
(** [update t pages dirty] recomputes the given leaves and all affected
    inner nodes. *)

val root : t -> string
val leaf : t -> int -> string
val num_leaves : t -> int

val diff : t -> t -> int list * int
(** [diff a b] walks both trees top-down and returns the divergent leaf
    indices plus the number of tree nodes visited — the message-count
    metric for the state-transfer experiments. The trees must have the
    same shape. *)

val root_of_leaves : string list -> string
(** Recompute the root a tree with exactly these leaf digests would have —
    used to check a peer's claimed page digests against a
    quorum-certified checkpoint digest before trusting any page. *)

val page_digest : string -> string
(** The leaf digest of one page's contents. *)

val copy : t -> t

val copy_into : t -> dst:t -> unit
(** [copy_into src ~dst] makes [dst] hold exactly [src]'s digests, with
    no hashing: the checkpoint restore, once every leaf of the live
    region equals the checkpoint's. Raises [Invalid_argument] unless the
    trees have the same shape. *)
