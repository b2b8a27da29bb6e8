(** A determinism/replay-safety violation reported by the analyzer. *)

type rule =
  | Hashtbl_order  (** unordered [Hashtbl] traversal in a replay-critical library *)
  | Poly_compare  (** polymorphic [compare]/[=]/[min]/[max]/[Hashtbl.hash] where an abstract or float-bearing type can flow *)
  | Physical_eq  (** [==]/[!=] *)
  | Wall_clock  (** ambient host time ([Unix.gettimeofday], [Sys.time], ...) *)
  | Ambient_rng  (** global-state randomness ([Random.self_init], [Random.int], ...) *)
  | Marshal_obj  (** [Marshal.*] / [Obj.*] *)
  | Float_format  (** float-to-text formatting inside digest/trace/wire code *)
  | Catch_all  (** [try ... with _ ->] that can swallow nondet-validation failures *)
  | Dispatch_catch_all
      (** unguarded [_] case in a protocol-message dispatch match, where a
          newly added constructor would be silently dropped *)
  | Tainted_sink
      (** wire-decoded data reaches a state-mutation sink without crossing a
          cryptographic sanitizer (the trustlint pass, see {!Taint}) *)
  | Unused_export
      (** a [val] in a scanned [.mli] that no other unit under [lib/],
          [bin/], [bench/], [examples/] or [benchmark/] references (see
          {!Exports}) *)

val rule_name : rule -> string
val all_rules : rule list

type t = {
  rule : rule;
  file : string;  (** repo-root-relative path, ['/']-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  snippet : string;  (** the offending source line, trimmed *)
  message : string;
  origin : (int * int) option;
      (** for [Tainted_sink]: (line, col) of the source call the taint
          originates from; [None] for the syntactic rules *)
}

val compare : t -> t -> int
(** Order by file, then line, then column, then rule name. *)

val to_json : t -> string
(** One self-contained JSON object, no trailing newline. *)

val to_human : t -> string
