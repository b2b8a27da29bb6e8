(** Deterministic hash partitioning of the relational state across
    independent PBFT replica groups.

    A {!topology} declares, per table, which column's value owns a row;
    every party — the untrusted sharded front door, each replica group's
    2PC wrapper, and the test reference executor — evaluates the same
    pure classification over the same SQL text, so they always agree on
    which shards a statement touches without exchanging any metadata.

    Routing is static (no catalog access): a statement is pinned to one
    shard when its WHERE clause carries a top-level [AND] equality
    conjunct on the partition column with a literal value (the same
    sargable shape the PR 3 planner extracts), and INSERT rows are pinned
    by the literal they supply for the partition column. Anything that
    cannot be pinned scatters: SELECT/UPDATE/DELETE run on every shard
    against its own partition (scatter-gather), DDL and transaction
    control replicate to all shards, and tables without a rule live
    wholly on shard 0. Two deliberate non-features: an INSERT whose
    partition value is absent or non-literal hashes as SQL NULL (one
    deterministic owner, not a broadcast duplicate), and updating the
    partition column itself does not move the row between shards. *)

type rule = { sr_table : string; sr_column : string }

type topology

val topology : shards:int -> rule list -> topology
(** Raises [Invalid_argument] unless [shards >= 1]. *)

val shards : topology -> int

val shard_of_value : topology -> Value.t -> int
[@@detlint.allow unused_export "the partitioning tests check the hash"]
(** Owning shard of a partition-column value (FNV-1a over the value's
    canonical key encoding; integral REALs coerce to INTEGER first so
    [id = 5] and [id = 5.0] agree). *)

val shard_of_int : topology -> int -> int
(** [shard_of_value] on an INTEGER key — the harness's row-placement
    helper. *)

val split_statements : string -> string list
[@@detlint.allow unused_export "the statement-splitting tests call it directly"]
(** Split a multi-statement SQL string on top-level [';'] boundaries
    (quoted strings and [--]/[/*] comments respected), trimmed, empty
    pieces dropped. Purely textual — never raises. *)

type route =
  | Single of int  (** every statement touches exactly this shard *)
  | Cross of int list  (** distinct ascending shards, length >= 2 *)

val classify : topology -> string -> route
(** Route a whole operation: the union of its statements' shards.
    Unparseable text routes [Single 0] — it will produce the same
    deterministic error reply there that any single group would give. *)

val plan : topology -> string -> (int * string) list
(** Per involved shard (ascending), the ['; ']-joined script of exactly
    the statements routed to it — what each shard executes under 2PC
    prepare. Statements touching several shards appear in each script. *)

val route_key : route -> string
(** Canonical text of a route (["2"], ["0,3"]) — the reply-cache key
    component that keeps a single-shard retransmission from matching a
    stale cross-shard reply. *)
