(** B+-tree over pager pages: ordered map from byte-string keys to
    byte-string values.

    Keys compare bytewise ({!Value.key_encode} makes that order meaningful
    for SQL values; row ids use fixed-width big-endian encoding). Leaves
    are chained for range scans. Deletion is lazy (no rebalancing) — pages
    freed only when a leaf empties — which is plenty for the workloads the
    evaluation runs and keeps the structure auditable.

    An entry must fit in a page: keys+values above ~3.8 KB raise
    [Invalid_argument] (no overflow chains; DESIGN.md notes the
    limitation). *)

type t

val create : Pager.t -> t
(** Allocate an empty tree (one leaf page). Must be inside a transaction. *)

val open_tree : Pager.t -> root:int -> t

val root : t -> int
(** Current root page; the owner must re-persist it after mutations (root
    splits change it). *)

val find : t -> string -> string option
(** [find_many] with the one key. *)

val find_many : t -> string list -> (string -> string option -> unit) -> unit
(** [find_many t keys f] calls [f k (find t k)] for each key of [keys],
    in order, while walking each node on the keys' paths once for the run
    of keys routed to it: the pages touched are the union of what the
    per-key lookups touch. The keys must be strictly ascending
    ([Invalid_argument] otherwise, before any lookup). The values passed
    to [f] are copies, but the walk reads borrowed page views, so [f] must
    not write the pager until [find_many] returns. *)

val insert : t -> key:string -> value:string -> unit
(** Inserts or replaces. *)

val delete : t -> string -> bool
(** True if the key existed. *)

val iter : t -> ?from:string -> ?upto:string -> (string -> string -> bool) -> unit
(** In-order traversal starting at the first key ≥ [from] (or the
    smallest); stops when the callback returns false or the next key
    exceeds the inclusive upper bound [upto]. Lazily-emptied leaves on
    the chain are stepped over without charging a page touch. Each leaf
    is read in place: the bounds are compared on the borrowed page, and
    only the run of entries in range is copied, once, before the
    callback sees any of it. So the callback may write the tree; the
    scan then yields the entries in range before it started. *)

val drop : t -> unit
(** Free every page of the tree. *)
