(** The checked-in file-level exemption list ([detlint.allow]).

    One entry per line: [<rule> <path> <justification...>]. The
    justification is mandatory — an exemption nobody can defend is a
    finding, not an exemption. ['#'] starts a comment; blank lines are
    ignored. Entries match findings by exact rule name and repo-relative
    path; entries that match nothing are reported as stale so the file
    cannot rot. *)

type entry = {
  al_rule : string;
  al_path : string;
  al_why : string;
  al_line : int;  (** line in the allow file, for stale-entry reports *)
  mutable al_used : bool;
}

type t

exception Malformed of string
(** Raised by {!load}/{!of_string} on a syntactically bad or
    justification-free entry, or an unknown rule name. *)

val empty : t
val load : string -> t
val of_string : string -> t
[@@detlint.allow unused_export "the allow-file parser tests feed it strings"]
val suppresses : t -> Finding.t -> bool
(** Marks the matching entry used. *)

val stale : t -> entry list
(** Entries that never matched a finding. *)
