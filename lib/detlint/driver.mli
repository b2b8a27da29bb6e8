(** Walking the tree, parsing, and assembling the report for both
    passes: the syntactic determinism rules ({!Rules}) with the
    [unused_export] rule ({!Exports}), and the trustlint taint analysis
    ({!Taint}). *)

val lint_source : rel:string -> string -> Finding.t list
[@@detlint.allow unused_export "the rule fixture tests lint strings"]
(** Parse one compilation unit from a string (fixtures, tests) and run
    the determinism rules under the classification its pseudo-path
    [rel] implies. Raises the parser's exceptions on syntax errors. *)

val lint_trust_source :
  ?interfaces:(string * string) list -> rel:string -> string -> Finding.t list
[@@detlint.allow unused_export "the taint fixture tests lint strings"]
(** Same, for the trust pass: [interfaces] is a list of
    [(pseudo-path, .mli source)] pairs whose [@@trust.*] attributes are
    harvested and layered over the convention table. *)

type pass = Determinism | Trust

type outcome = {
  files_scanned : int;
  findings : Finding.t list;  (** sorted; attribute-exempted sites are not findings *)
  errors : string list;  (** unparseable files *)
}

val run : ?passes:pass list -> ?dirs:string list -> root:string -> unit -> outcome
(** Lint every [.ml] under [root]/[dirs] (default [["lib"]]), in sorted
    path order, with the requested passes (default
    [[Determinism]]). When the trust pass runs, every [.mli] under the
    same dirs is harvested for [@@trust.*] declarations first; the
    determinism pass also checks those [.mli]s' exports against every
    [.ml] under {!Exports.consumer_dirs}, whatever [dirs] is. The only
    exemptions are [[@detlint.allow rule]] and [[@trustlint.allow "why"]]
    attributes at the site ([[@@detlint.allow unused_export "why"]] on
    a [val]). *)
