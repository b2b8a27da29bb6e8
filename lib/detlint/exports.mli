(** The [unused_export] rule: a [val] in an interface that no other
    compilation unit references.

    Exports are the [val]s of each scanned [.mli], nested
    [module X : sig ... end] paths included ([Codec.W.u8]). A unit
    references [M.x] through a qualified path, with or without the
    library wrapper ([Replica.x], [Pbft.Replica.x]), through a module
    alias ([module F = Webgate.Frontdoor] then [F.x]), through a bare
    [x] under [open M], [let open M] or [M.( ... )], or by using [M] as
    a whole (a functor argument, [include M], a packed module).
    Scoping is ignored, so an ambiguous reference counts as a use: the
    rule may miss a dead export but never flags a live one.

    An export nothing outside its own implementation references is a
    finding unless its [val] carries
    [[@@detlint.allow unused_export "reason"]]; the reason string is
    required, and an allow on an export that is referenced is itself a
    finding (stale). *)

val consumer_dirs : string list
(** The directories, relative to the repository root, whose [.ml]
    files count as references: [lib], [bin], [bench], [examples] and
    [benchmark]. *)

val lint :
  interfaces:(string * string array * Parsetree.signature) list ->
  units:(string * Parsetree.structure) list ->
  Finding.t list
(** [interfaces] are [(repo-relative .mli path, source lines, parsed
    signature)]; [units] are [(repo-relative .ml path, parsed
    structure)], the interfaces' own implementations included (a
    reference from its own [.ml] does not count). Units outside
    {!consumer_dirs} are ignored. Findings sorted. *)
