(** Expression evaluation over rows whose column references were resolved
    to positions once per statement. *)

exception Eval_error of string

type ctx = {
  time : unit -> float;  (** NOW() — routed through the VFS (§2.5) *)
  random : unit -> int64;  (** RANDOM() *)
}

type t
(** An expression resolved against one row layout. *)

val compile : ctx -> (string option -> string -> (int, string) result) -> Ast.expr -> t
(** [compile ctx resolve e] resolves every column reference of [e] once:
    [resolve qualifier name] gives the column's position in the rows
    {!eval} will see, or the error message. A reference that does not
    resolve, a misplaced [*], an unknown function or an aggregate call
    raises {!Eval_error} only when evaluated, as an empty table never
    evaluates it. *)

val eval : t -> Value.t array -> Value.t
(** Evaluate against one row. Raises {!Eval_error} (see {!compile}). *)

val is_aggregate : Ast.expr -> bool
(** Does the expression contain an aggregate function call? *)
