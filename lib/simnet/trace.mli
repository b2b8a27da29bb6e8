(** Global message log.

    §2.2: the paper's authors modified PBFT to run on one host and logged
    every inter-replica message against the common clock in order to
    reason about the system at all. This module is that instrumentation,
    built in: every datagram (and, optionally, application events) is
    recorded with its virtual timestamp. Figures 1 and 2 are rendered
    directly from these records. *)

type entry = {
  time : float;
  src : int;
  dst : int;
  label : string; (** message kind, e.g. "pre-prepare" *)
  detail : string; (** free-form: view/sequence numbers etc. *)
  size : int; (** wire bytes; 0 for application events *)
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds retained entries (oldest dropped); default 100_000. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val record : t -> entry -> unit
val entries : t -> entry list
(** Oldest first. *)

val filter : t -> (entry -> bool) -> entry list
[@@detlint.allow unused_export "the simnet trace tests select entries"]

val render : ?limit:int -> t -> (entry -> bool) -> string
(** Human-readable sequence rendering used by the figure regenerators. *)
