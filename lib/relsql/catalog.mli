(** System catalog: table and index metadata, stored in its own B-tree
    whose root lives in the pager header — so schema is part of the
    database file and therefore of the replicated state. *)

type index_def = { idx_name : string; idx_col : string; idx_root : int }

type table = {
  tbl_name : string;
  tbl_cols : Ast.column_def list;
  tbl_root : int;  (** row B-tree root *)
  tbl_next_rowid : int;
  tbl_indexes : index_def list;
}

type t

val attach : Pager.t -> t
(** Open the catalog, creating it in a transaction of its own if the
    database is fresh. *)

val find_table : t -> string -> table option
(** Case-insensitive. *)

val create_table : t -> table -> unit
val update_table : t -> table -> unit
val drop_table : t -> string -> unit
val table_names : t -> string list

val find_index : t -> string -> (table * index_def) option
(** Look an index up by name (case-insensitive) across every table;
    returns the owning table alongside the definition. *)
