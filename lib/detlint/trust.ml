(* Trust-boundary declarations for the trustlint pass.

   The taint analysis in {!Taint} needs to know three sets of functions:
   *sources* that turn untrusted wire bytes into values, *sanitizers*
   whose boolean verdict vouches for the values they inspected, and
   *sinks* that fold a value into replica/gateway state. Two declaration
   channels feed those sets:

   - [@@trust.source] / [@@trust.sanitizer] / [@@trust.sink] attributes
     on [val] declarations (and record labels) in the repo's own [.mli]
     files — the preferred channel, because the declaration lives next
     to the contract it encodes;
   - the convention table below, for names that have no interface to
     annotate: locally-defined helpers ([view_change_well_formed]),
     closure parameters ([verify] in [Relsql.Twopc]), and stdlib calls
     that only act as a boundary in specific files. *)

open Parsetree

type role = Source | Sanitizer | Sink

let role_name = function Source -> "source" | Sanitizer -> "sanitizer" | Sink -> "sink"

type spec = {
  sp_path : string list;
      (* suffix of the flattened applied identifier, e.g. ["Mac"; "verify"]
         matches both [Mac.verify] and [Crypto.Mac.verify] *)
  sp_role : role;
  sp_scope : string list;
      (* repo-relative file paths (or directory prefixes ending in '/')
         this spec applies in; [] = everywhere *)
  sp_desc : string;
}

let in_scope spec ~rel =
  spec.sp_scope = []
  || List.exists
       (fun s ->
         if String.length s > 0 && s.[String.length s - 1] = '/' then
           String.starts_with ~prefix:s rel
         else String.equal s rel)
       spec.sp_scope

(* Does the flattened identifier [path] end with the spec's components? *)
let path_matches spec path =
  let want = List.length spec.sp_path and got = List.length path in
  got >= want
  && (let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
      List.for_all2 String.equal spec.sp_path (drop (got - want) path))

let find_spec specs ~rel ~role path =
  List.find_opt (fun s -> s.sp_role = role && in_scope s ~rel && path_matches s path) specs

(* ------------------------------------------------------------------ *)
(* Convention table.                                                    *)

(* Files whose [Util.Codec] reads really do consume bytes that arrived
   off the (simulated) wire. Deliberately *not* lib/relsql/pager.ml or
   btree.ml: those decode their own disk images, written by the same
   code under the pager's checksums, and treating them as wire input
   would drown the signal. *)
let wire_codec_files =
  [
    "lib/pbft/replica.ml";
    "lib/pbft/session_state.ml";
    "lib/webgate/frontdoor.ml";
    "lib/relsql/twopc.ml";
  ]

let conventions =
  [
    (* --- sources ------------------------------------------------- *)
    {
      sp_path = [ "Util"; "Codec"; "R"; "of_string" ];
      sp_role = Source;
      sp_scope = wire_codec_files;
      sp_desc = "raw codec reader over wire bytes";
    };
    {
      sp_path = [ "Util"; "Codec"; "decode" ];
      sp_role = Source;
      sp_scope = wire_codec_files;
      sp_desc = "codec decode of wire bytes";
    };
    {
      sp_path = [ "Json"; "parse" ];
      sp_role = Source;
      sp_scope = [ "lib/webgate/gateway.ml" ];
      sp_desc = "browser-frame JSON parse";
    };
    (* --- sanitizers ---------------------------------------------- *)
    {
      sp_path = [ "view_change_well_formed" ];
      sp_role = Sanitizer;
      sp_scope = [ "lib/pbft/replica.ml" ];
      sp_desc = "view-change well-formedness check (PR 5)";
    };
    {
      sp_path = [ "check_auth" ];
      sp_role = Sanitizer;
      sp_scope = [ "lib/pbft/replica.ml" ];
      sp_desc = "per-message MAC/signature verification at intake";
    };
    {
      sp_path = [ "verify_reply_auth" ];
      sp_role = Sanitizer;
      sp_scope = [ "lib/pbft/client.ml" ];
      sp_desc = "per-reply MAC/signature verification at intake";
    };
    {
      sp_path = [ "verify" ];
      sp_role = Sanitizer;
      sp_scope = [ "lib/relsql/twopc.ml" ];
      sp_desc = "vote-certificate re-verification closure (threshold publics)";
    };
    {
      (* Comparing a decoded value against an already-trusted digest
         (quorum-certified Merkle root, recomputed join proof) is this
         repo's idiom for content checks; scoped to the replica, where
         every such String.equal is one of those checks. *)
      sp_path = [ "String"; "equal" ];
      sp_role = Sanitizer;
      sp_scope = [ "lib/pbft/replica.ml" ];
      sp_desc = "digest equality against a trusted value";
    };
    (* --- sinks ---------------------------------------------------- *)
    {
      sp_path = [ "Hashtbl"; "replace" ];
      sp_role = Sink;
      sp_scope = [];
      sp_desc = "table insert (quorum tallies, caches, ledgers)";
    };
    {
      sp_path = [ "Hashtbl"; "add" ];
      sp_role = Sink;
      sp_scope = [];
      sp_desc = "table insert";
    };
  ]

(* ------------------------------------------------------------------ *)
(* Interface harvesting.                                                *)

let trust_attr_role (a : attribute) =
  match a.attr_name.txt with
  | "trust.source" -> Some Source
  | "trust.sanitizer" -> Some Sanitizer
  | "trust.sink" -> Some Sink
  | _ -> None

let attr_desc (a : attribute) ~default =
  match a.attr_payload with
  | PStr [ { pstr_desc = Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _); _ } ]
    ->
    s
  | _ -> default

(* "lib/pbft/session_state.mli" -> "Session_state" *)
let module_of_mli rel =
  let base = Filename.remove_extension (Filename.basename rel) in
  String.capitalize_ascii base

let specs_of_attrs ~modname ~name attrs =
  List.filter_map
    (fun a ->
      match trust_attr_role a with
      | None -> None
      | Some role ->
        Some
          {
            sp_path = [ modname; name ];
            sp_role = role;
            sp_scope = [];
            sp_desc = attr_desc a ~default:(Printf.sprintf "%s.%s (declared)" modname name);
          })
    attrs

(* Harvest [@@trust.*] markers from one parsed [.mli]: [val]
   declarations, and record labels (so a function-typed field like
   [Service.execute] can be a declared sink). Nested module signatures
   contribute under [Module.Sub.name] — matching is suffix-based, so the
   last two components are what call sites see. *)
let harvest_interface ~rel (sg : signature) =
  let modname = module_of_mli rel in
  let out = ref [] in
  let rec walk_sig prefix items =
    List.iter
      (fun (item : signature_item) ->
        match item.psig_desc with
        | Psig_value vd ->
          out := specs_of_attrs ~modname:prefix ~name:vd.pval_name.txt vd.pval_attributes @ !out
        | Psig_type (_, decls) ->
          List.iter
            (fun (d : type_declaration) ->
              match d.ptype_kind with
              | Ptype_record labels ->
                List.iter
                  (fun (l : label_declaration) ->
                    (* the attribute may parse onto the label or its type *)
                    let attrs = l.pld_attributes @ l.pld_type.ptyp_attributes in
                    out := specs_of_attrs ~modname:prefix ~name:l.pld_name.txt attrs @ !out)
                  labels
              | _ -> ())
            decls
        | Psig_module { pmd_name = { txt = Some sub; _ }; pmd_type; _ } -> walk_modtype sub pmd_type
        | _ -> ())
      items
  and walk_modtype sub (mt : module_type) =
    match mt.pmty_desc with
    | Pmty_signature items -> walk_sig sub items
    | _ -> ()
  in
  walk_sig modname sg;
  List.rev !out

let parse_interface ~filename src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf filename;
  Parse.interface lexbuf
