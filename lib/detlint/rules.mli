(** The determinism rules: a syntactic pass over one parsed compilation
    unit. Path-based classification decides which rules apply where:

    - {b replay-critical} libraries ([lib/pbft], [lib/simnet],
      [lib/simdisk], [lib/statemgr], [lib/relsql], [lib/crypto]) get the
      [hashtbl_order] and [poly_compare] rules — these are the modules
      whose behaviour replays must reproduce bit-for-bit;
    - modules on the {b digest/trace/wire} list get [float_format];
    - everything gets [physical_eq], [wall_clock], [ambient_rng],
      [marshal_obj], and [catch_all];
    - a module-level [let] under [lib/] bound to a fresh [ref], array,
      hash table, byte buffer, queue or SHA-256 context gets
      [toplevel_mutable].

    [poly_compare] fires on bare [compare]/[min]/[max]/[Hashtbl.hash]
    only in "strict" modules — ones whose own type declarations contain
    [float], [bytes], or functional components (where polymorphic
    comparison is unstable or raises), plus an explicit list — and on
    [=]/[<>] whose operands name digest/key/MAC-like values or string
    literals (operands that are [*.length] applications are exempt).

    Findings are suppressed only by a [[@detlint.allow <rule> ...]]
    attribute on the enclosing expression or [let]-binding. *)

val flatten_lid : Longident.t -> string list
(** ["A.B.c"] as [["A"; "B"; "c"]]; a functor application contributes
    both paths. *)

val lint_structure :
  rel:string -> lines:string array -> Parsetree.structure -> Finding.t list
(** Findings for one parsed [.ml], sorted, attribute suppression already
    applied. [lines] provides the snippet text (0-based array of source
    lines). *)
