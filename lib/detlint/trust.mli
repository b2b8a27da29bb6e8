(** Source / sanitizer / sink declarations for the trustlint pass.

    A {!spec} names a function (by identifier-path suffix) and the role
    it plays at a verification boundary. Specs come from [@@trust.source],
    [@@trust.sanitizer], and [@@trust.sink] attributes harvested off the
    repo's [.mli] files ({!harvest_interface}), plus the {!conventions}
    table for names with no interface to annotate (local helpers, closure
    parameters, file-scoped stdlib calls). *)

type role = Source | Sanitizer | Sink

type spec = {
  sp_path : string list;
      (** suffix of the flattened applied identifier; [["Mac"; "verify"]]
          matches [Mac.verify] and [Crypto.Mac.verify] *)
  sp_role : role;
  sp_scope : string list;
      (** repo-relative files (or directory prefixes ending in ['/']) the
          spec applies in; [[]] means everywhere *)
  sp_desc : string;  (** what the boundary is, for finding messages *)
}

val find_spec : spec list -> rel:string -> role:role -> string list -> spec option
(** First spec of [role] whose scope covers [rel] and whose path is a
    suffix of the flattened identifier. *)

val conventions : spec list
(** The checked-in convention table: wire-codec reads scoped to the
    files that really consume wire bytes, locally-defined sanitizers
    ([check_auth], [view_change_well_formed], the [Twopc] [verify]
    closure), and the generic [Hashtbl.replace]/[add] insert sinks. *)

val harvest_interface : rel:string -> Parsetree.signature -> spec list
(** Specs declared by [@@trust.*] attributes on [val] declarations and
    record labels in one parsed [.mli]. An attribute's string payload, if
    any, becomes the spec description. *)

val parse_interface : filename:string -> string -> Parsetree.signature
