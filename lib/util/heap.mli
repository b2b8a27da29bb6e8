(** Binary min-heap keyed by float priority, with insertion-order
    tie-breaking so that simultaneous simulation events fire in a
    deterministic order. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push t priority v] inserts [v]. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element; ties break in
    insertion order. *)

val peek : 'a t -> (float * 'a) option
