(** SQL values and their comparison / coercion semantics. *)

type t =
  | Null
  | Int of int
  | Real of float
  | Text of string

val compare_sql : t -> t -> int
(** SQLite-style ordering: Null < numbers < text; Int and Real compare
    numerically with each other. *)

val equal : t -> t -> bool
[@@detlint.allow unused_export "the relsql tests compare values"]
val is_null : t -> bool
val to_string : t -> string
(** Rendering for result rows ("NULL" for Null). *)

val as_number : t -> float option

val truthy : t -> bool
(** SQL boolean interpretation: nonzero number; Null and text are false. *)

val encode : Util.Codec.W.t -> t -> unit
val decode : Util.Codec.R.t -> t

val key_encode : t -> string
(** Order-preserving (within a type class) encoding used as B-tree index
    key material. *)
