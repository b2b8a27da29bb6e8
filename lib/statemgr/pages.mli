(** The PBFT state region: a single contiguous memory area divided into
    equal pages (§2.1, §3.2).

    The application has free read access but must call {!notify_modify}
    before changing any byte — exactly the contract the paper criticizes
    as havoc-prone. The region enforces it: a write to a page that was
    not notified raises {!Unnotified_write}, so the failure mode §3.2
    warns about (a change the checkpoint never sees) cannot pass
    silently. The region
    is sparse: pages are allocated on first touch, so a "large enough"
    region can be declared up front the way the authors used a sparse
    file (§3.2).

    Snapshots are copy-on-write, the way Castro–Liskov's middleware kept
    checkpointing off the critical path: {!snapshot} is O(num_pages)
    pointer work, and page bytes are duplicated only when the live region
    first writes a page a snapshot still references. *)

exception Unnotified_write of int
(** Page index written without a prior notification. *)

type t

val create : page_size:int -> num_pages:int -> unit -> t
val page_size : t -> int
val num_pages : t -> int
val total_size : t -> int
[@@detlint.allow unused_export "the statemgr tests size regions"]

val read : t -> pos:int -> len:int -> string
(** Free read access anywhere in the region; unallocated pages read as
    zeros. Raises [Invalid_argument] out of bounds. *)

val notify_modify : t -> pos:int -> len:int -> unit
(** Declare intent to modify the byte range, marking its pages dirty
    (the copy-on-write hook). *)

val write : t -> pos:int -> string -> unit
(** Write through. Every touched page must have been notified since the
    last {!clear_dirty}; otherwise nothing is written and
    {!Unnotified_write} names the first such page. Writing a page still
    shared with a snapshot first duplicates that one page. *)

val page : t -> int -> string
(** Contents of one page (zero page if untouched), as a fresh string. *)

val page_view : t -> int -> string
(** Read-only borrow of one whole page: the live slot's bytes as a
    string, or one shared all-zero page for an untouched slot. Nothing is
    copied. The contract:
    - the view aliases the live buffer, so it is valid only until the
      next {!write} (or {!load_page}, {!restore_page}) to that page —
      after that it may show the new bytes, the old ones, or a mix;
    - the caller must finish with it before writing the region, and must
      never retain it (store it, return it, or hand it to a callback
      that might): copy out ([String.sub]) whatever has to outlive it.
    Intended for probing page contents in place (the SQL engine's B-tree
    lookups). Raises [Invalid_argument] for an index out of range. *)

val page_bytes : t -> int -> Bytes.t option
(** The page's backing buffer ([None] = untouched zero page), without
    copying. The buffer MUST NOT be mutated by the caller — it may be
    shared with live snapshots. Intended for zero-copy hashing. *)

val frozen_page_bytes : t -> int -> Bytes.t option
(** The page's backing buffer while it is shared — with a snapshot, a
    {!copy} or another region through {!alias_pages} — and [None]
    otherwise (an unshared or untouched page). A shared buffer is frozen:
    every writer duplicates it first, on whichever side, so its bytes
    never change again, not even after this region's slot moves on. That
    makes it safe to key a cache of a pure function of the page bytes on
    the buffer's physical identity. The caller MUST NOT mutate it. Raises
    [Invalid_argument] for an index out of range. *)

val load_page : t -> int -> string -> unit
[@@trust.sink "wholesale page install into the replicated state region"]
(** Install page contents wholesale (state transfer); marks it dirty. *)

val dirty : t -> int list
(** Ascending indices of pages notified/written since the last clear. *)

val clear_dirty : t -> unit

val allocated_pages : t -> int
(** Pages actually backed by memory (sparseness metric). *)

val generation : t -> int
(** Monotone counter bumped on every wholesale page install
    ({!load_page}, {!restore_page}) — state transfer, checkpoint restore
    and speculation rollback. In-process caches of decoded region
    contents (e.g. the session-state store) compare it to decide whether
    the region changed under them; ordinary {!write}s do not bump it,
    because those flow through the cache's own store path. *)

(** {2 Copy-on-write snapshots} *)

type snapshot
(** An immutable view of the region as of {!snapshot} time. Shares page
    buffers with the live region; never observes later writes. *)

val snapshot : t -> snapshot
(** O(num_pages) pointer work; no page bytes are copied. Subsequent
    writes to the region duplicate only the pages they touch. *)

val snapshot_page : snapshot -> int -> string
(** Contents of one page at snapshot time, as a fresh string. *)

val restore_page : t -> snapshot -> int -> unit
(** Overwrite one live page with the snapshot's version, adopting the
    snapshot's buffer by reference (still copy-on-write); marks the page
    dirty like {!load_page} does. *)

val restore_changed : t -> snapshot -> unit
(** Put back, as {!restore_page} does, exactly the pages whose bytes
    differ from the snapshot's; each is marked dirty. A slot that still
    holds the snapshot's own buffer is skipped without a byte comparison:
    a shared buffer is frozen. Pages whose bytes are equal keep their
    live buffer, so no {!generation} bump and no later copy-on-write is
    spent on them. The snapshot must come from a region with the same
    number of pages; raises [Invalid_argument] otherwise. *)

val alias_pages : t -> first:int -> src:t -> src_first:int -> count:int -> unit
(** [alias_pages t ~first ~src ~src_first ~count] makes pages
    [first .. first + count - 1] of [t] hold exactly what pages
    [src_first .. src_first + count - 1] of [src] hold, by sharing [src]'s
    buffers — how a captured image (a private region holding one boot's
    filled pages) is taken from the region that filled it and handed to
    every later region of the same service. The contract:
    - both sides mark each aliased buffer shared, so the first {!write}
      to it on either side duplicates that one page and neither ever
      observes the other's writes (copy-on-write, as with {!snapshot});
    - every page of [t] that is backed before or after becomes dirty,
      so the next Merkle update covers it (a page unbacked on both sides
      is left alone); [src]'s dirty set is untouched;
    - no bytes are copied ({!bytes_copied} does not move), no snapshot is
      counted ({!snapshots_taken} does not move) and {!generation} is not
      bumped: this installs state before any cache of the region exists.
    Raises [Invalid_argument] on a page-size mismatch or an out-of-range
    page. *)

val copy : t -> t
(** Logical deep copy with lazy materialization: both regions share
    buffers until either writes. *)

(** {2 Instrumentation} *)

val bytes_copied : unit -> int
(** Process-wide total of page bytes physically duplicated by the
    copy-on-write machinery since startup. Monotone; sample before/after
    a workload and subtract (compare a deep-copy checkpointer, which
    would copy every allocated page per snapshot). *)

val snapshots_taken : unit -> int
(** Process-wide count of {!snapshot} calls since startup. *)
