(** Bounded least-recently-used map with O(1) find/put/remove/evict.

    Built for per-client caches that must survive 100k churning sessions
    without growing without bound: the reply caches in the replica and
    the webgate front door, and any other hot-path structure where a
    linear scan would show up at open-loop load. No iteration is exposed
    (a traversal order over a hash table is not deterministic); callers
    needing canonical order keep their own sorted structure. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val capacity : ('k, 'v) t -> int
[@@detlint.allow unused_export "the LRU contract tests"]
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup that refreshes the entry's recency. *)

val peek : ('k, 'v) t -> 'k -> 'v option
[@@detlint.allow unused_export "the LRU contract tests"]
(** Lookup without touching recency. *)

val mem : ('k, 'v) t -> 'k -> bool
[@@detlint.allow unused_export "the LRU contract tests"]

val put : ?on_evict:('k -> 'v -> unit) -> ('k, 'v) t -> 'k -> 'v -> unit
[@@trust.sink "bounded-cache insert (reply caches, session records)"]
(** Insert or replace, refreshing recency. When the table is full and
    the key is new, the least-recently-used entry is evicted first and
    [on_evict] (default: ignore) observes it. *)

val remove : ('k, 'v) t -> 'k -> unit

val evict_lru : ('k, 'v) t -> ('k * 'v) option
[@@detlint.allow unused_export "the LRU contract tests"]
(** Force out the coldest entry (counted as an eviction). *)

val evictions : ('k, 'v) t -> int
(** Entries displaced by capacity pressure since creation — the counter
    overload reports surface. [remove] does not count. *)
