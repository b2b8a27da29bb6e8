(** Expression evaluation over row bindings. *)

exception Eval_error of string

type binding = {
  b_table : string;  (** lowercase table name or alias *)
  b_cols : string list;  (** lowercase column names *)
  b_row : Value.t array;
}

type env = {
  bindings : binding list;
  env_time : unit -> float;  (** NOW() — routed through the VFS (§2.5) *)
  env_random : unit -> int64;  (** RANDOM() *)
}

val eval : env -> Ast.expr -> Value.t
(** Raises {!Eval_error} on unknown columns/functions or aggregate calls
    (aggregates are handled by the select executor, not here). *)

val is_aggregate : Ast.expr -> bool
(** Does the expression contain an aggregate function call? *)
