(** The embedded relational engine's public face — the role SQLite plays
    in the paper's state abstraction (§3.2).

    A database is a single file behind a {!Vfs.t}: open it, feed it SQL,
    get rows back. ACID comes from the rollback journal (present on the
    VFS or not); every execution reports the virtual cost of the work it
    did, which the PBFT service charges to the replica's CPU. *)

type t

type row = Value.t array

type result = { columns : string list; rows : row list; affected : int }

type outcome = {
  res : (result, string) Stdlib.result;
  cost : float;
  pages_read : int;  (** B-tree pages touched by this execution *)
  rows_scanned : int;  (** candidate rows materialized and evaluated *)
}

val open_db : Vfs.t -> t
(** Opens the database (running journal recovery if needed, creating the
    schema catalog on first use). *)

val exec : t -> string -> outcome
(** Execute one or more ';'-separated statements (results of the last
    one are returned). Errors never raise: they come back as [Error]
    with the transaction rolled back. *)

val exec_exn : t -> string -> result
(** [exec] or [Failure]. *)

val in_transaction : t -> bool
[@@detlint.allow unused_export "the transaction tests check BEGIN and ROLLBACK"]

val table_names : t -> string list
[@@detlint.allow unused_export "the DDL tests list tables"]

val stmt_cache_stats : t -> int * int
[@@detlint.allow unused_export "the statement-cache tests read hits and misses"]
(** (hits, misses) of the per-connection statement cache since open. *)

type stmt_cache
(** A captured statement cache: its entries and hit/miss counts. *)

val stmt_cache : t -> stmt_cache
(** Capture the connection's statement cache (a private copy). *)

val adopt_stmt_cache : t -> stmt_cache -> unit
(** Give the connection a private copy of a captured cache, counts
    included. A connection opened on a copy of another's file then
    prices its statements ([cached] or parsed) exactly as the original
    would, and wipes its cache at the same statement. *)

val set_planner_enabled : t -> bool -> unit
[@@detlint.allow unused_export "the planner property test's reference executor"]
(** Turn access-path planning off (every statement full-scans) — the
    reference executor the planner is property-tested against. On by
    default. *)

val pages_read_total : unit -> int
(** Process-wide page-touch count across every database, for the bench
    harness (same idiom as [Crypto.Sha256.bytes_hashed]). *)

val rows_scanned_total : unit -> int

val render : result -> string
(** Plain-text table rendering for examples and the CLI. *)
