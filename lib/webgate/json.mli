(** JSON, from scratch — the browser-friendly wire format §3.3.3 says the
    middleware must learn to speak ("binary messages are highly
    inconvenient in this context... structures like JSON or XML need to
    be used"). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Raises {!Parse_error} on malformed input. Numbers are parsed as
    floats; strings support the standard escapes plus \uXXXX (decoded to
    UTF-8). *)

val print : t -> string
(** Compact rendering with minimal escaping. *)

val pretty : t -> string
(** Indented rendering for logs and examples. *)

(** {2 Accessors} (raise [Not_found] / [Parse_error] on shape mismatch) *)

val member : string -> t -> t
val member_opt : string -> t -> t option
val to_string_exn : t -> string
val to_float_exn : t -> float
val to_int_exn : t -> int
(** Raises {!Parse_error} unless the number is integral and within
    ±2{^53}, the range a double represents exactly. *)

val to_bool_exn : t -> bool

(** {2 Binary-safe helpers} *)

val of_bytes : string -> t
(** Hex-armours arbitrary bytes into a [Str]. *)

val bytes_exn : t -> string
(** Inverse of {!of_bytes}. *)
