(** SQL values and their comparison / coercion semantics. *)

type t =
  | Null
  | Int of int
  | Real of float
  | Text of string

val compare_sql : t -> t -> int
(** SQLite-style ordering: Null < numbers < text; Int and Real compare
    numerically with each other. *)

val is_null : t -> bool
val to_string : t -> string
(** Rendering for result rows ("NULL" for Null). *)

val as_number : t -> float option

val truthy : t -> bool
(** SQL boolean interpretation: nonzero number; Null and text are false. *)

val encode : Util.Codec.W.t -> t -> unit
val decode : Util.Codec.R.t -> t

val skip : Util.Codec.R.t -> unit
(** Step over one encoded value without building it. *)

val key_encode : t -> string
(** Order-preserving (within a type class) encoding used as B-tree index
    key material. *)

val key_decode : string -> t
(** The exact inverse of {!key_encode}, bit for bit on Reals: covering
    index scans read column values back out of index keys. Raises
    [Invalid_argument] on a string [key_encode] cannot produce. *)
