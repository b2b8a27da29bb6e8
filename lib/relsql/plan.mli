(** Access-path selection for single-table statements.

    The planner reads the top-level AND conjuncts of a WHERE clause for
    sargable comparisons (column op literal, IS \[NOT\] NULL) and picks a
    rowid probe, a bounded secondary-index scan, or a full scan. Chosen
    paths are supersets of the matching rows — the executor re-evaluates
    the predicate once per candidate — so bounds may overshoot but never
    exclude a match. *)

type access =
  | Full_scan
  | No_rows  (** a conjunct is provably unsatisfiable, e.g. [col = NULL] *)
  | Pk_probe of int  (** direct rowid lookup in the row tree *)
  | Index_scan of { idx : Catalog.index_def; lo : string option; hi : string option }
      (** bounded scan of a secondary index; [lo]/[hi] are inclusive
          entry-key bounds for {!Btree.iter}'s [from]/[upto] *)

val choose : Catalog.table -> Ast.expr option -> access
(** Pick the access path for one table under an optional WHERE clause.
    Precedence: proven emptiness, then a primary-key equality probe, then
    the best-scored index range (equality > two-sided > one-sided; ties
    break towards the index declared first), then a full scan. *)

val coerce : Ast.column_def -> Value.t -> Value.t
(** Coerce a value to a column's declared affinity — shared with the
    write path, whose use of it establishes the storage invariants the
    planner's bounds rely on. *)

val col_names : Catalog.table -> string list
(** Lower-cased column names, in declaration order. *)

val pk_column : Catalog.table -> int option
(** Position of the INTEGER PRIMARY KEY column, if any. *)
