(** Key-sorted traversal over [Hashtbl.t].

    [Hashtbl]'s own [iter]/[fold] visit bindings in bucket order, which
    depends on the hash function, the table's growth history, and the
    insertion sequence. That order is deterministic for one build of one
    program, but it is an implementation detail: adding a field, changing
    a hash seed, or inserting in a different order silently reorders the
    traversal. Anywhere the visit order can reach a message, a digest, or
    the simulation trace, that is a replay hazard (the failure mode the
    paper's non-determinism validation exists to catch), so such call
    sites must traverse in key order instead — [detlint]'s
    [hashtbl_order] rule enforces this.

    All functions snapshot the table's bindings and sort them by key
    before visiting, so they cost O(n log n) and tolerate the callback
    mutating the table. Keys are ordered by the polymorphic [compare],
    which is right for the [int] and [string] keys used across this
    repo; keys containing floats (NaN), abstract types or functional
    values do not belong here. If a key has several bindings (repeated
    [Hashtbl.add]), they are visited most-recent-first, matching
    [Hashtbl.find_all]. *)

val bindings : ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** All bindings sorted by key (ascending). *)

val keys : ('a, 'b) Hashtbl.t -> 'a list
(** All keys sorted ascending; a key appears once per binding. *)

val iter : ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit
(** [iter f tbl] is [Hashtbl.iter f tbl] in ascending key order. *)

val fold : ('a -> 'b -> 'c -> 'c) -> ('a, 'b) Hashtbl.t -> 'c -> 'c
(** [fold f tbl init] is [Hashtbl.fold f tbl init] in ascending key
    order: [f kmin v (... (f kmax v' init))] is {e not} the evaluation
    order — like [Hashtbl.fold], [f] is applied to each binding with the
    accumulator so far, starting from the smallest key. *)
