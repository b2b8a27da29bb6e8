open Parsetree

let unit_of_rel rel = String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

(* ------------------------------------------------------------------ *)
(* Exports: every [val] of an interface, nested [module X : sig ... end]
   included; module types and named signatures are specs, not values. *)

type allow = Absent | Reasoned | Unreasoned

type export = {
  rel : string;
  impl : string;
  path : string list;  (* [Unit; Sub...] *)
  name : string;
  loc : Location.t;
  allow : allow;
}

let allow_of_attrs (attrs : attributes) =
  let rec parts (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident s; _ } -> [ `Rule s ]
    | Pexp_constant (Pconst_string (s, _, _)) -> [ `Reason (String.trim s) ]
    | Pexp_apply (f, args) -> parts f @ List.concat_map (fun (_, a) -> parts a) args
    | Pexp_tuple es -> List.concat_map parts es
    | _ -> []
  in
  List.fold_left
    (fun acc (a : attribute) ->
      match a.attr_payload with
      | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ]
        when String.equal a.attr_name.txt "detlint.allow" ->
        let ps = parts e in
        if not (List.mem (`Rule (Finding.rule_name Finding.Unused_export)) ps) then acc
        else if List.exists (function `Reason r -> r <> "" | `Rule _ -> false) ps then Reasoned
        else Unreasoned
      | _ -> acc)
    Absent attrs

let exports_of_signature ~rel (sg : signature) =
  let impl = Filename.remove_extension rel ^ ".ml" in
  let rec items path sg = List.concat_map (item path) sg
  and item path (si : signature_item) =
    match si.psig_desc with
    | Psig_value vd ->
      [ { rel; impl; path; name = vd.pval_name.txt; loc = vd.pval_loc;
          allow = allow_of_attrs vd.pval_attributes } ]
    | Psig_module md -> module_decl path md
    | Psig_recmodule mds -> List.concat_map (module_decl path) mds
    | _ -> []
  and module_decl path (md : module_declaration) =
    match md.pmd_name.txt, md.pmd_type.pmty_desc with
    | Some name, Pmty_signature sg -> items (path @ [ name ]) sg
    | _ -> []
  in
  items [ unit_of_rel rel ] sg

(* ------------------------------------------------------------------ *)
(* References one compilation unit makes. Scoping is ignored on purpose:
   an alias or open anywhere in the unit counts everywhere in it, so an
   ambiguous reference always resolves to a use. *)

type refs = {
  qualified : (string, string list) Hashtbl.t;  (* name -> module paths it was read through *)
  bare : (string, unit) Hashtbl.t;
  opened : string list list;
  whole : string list list;  (* modules used as a whole: functor args, includes, packs *)
}

let refs_of_structure (str : structure) =
  let qualified = Hashtbl.create 64 and bare = Hashtbl.create 64 in
  let aliases = ref [] and opened = ref [] and whole = ref [] in
  let ident_path (me : module_expr) =
    match me.pmod_desc with Pmod_ident lid -> Some (Rules.flatten_lid lid.txt) | _ -> None
  in
  let default = Ast_iterator.default_iterator in
  let expr it (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      match List.rev (Rules.flatten_lid txt) with
      | [ n ] -> Hashtbl.replace bare n ()
      | n :: rpath -> Hashtbl.add qualified n (List.rev rpath)
      | [] -> ())
    | Pexp_letmodule ({ txt = Some name; _ }, { pmod_desc = Pmod_ident lid; _ }, body) ->
      aliases := (name, Rules.flatten_lid lid.txt) :: !aliases;
      it.Ast_iterator.expr it body
    | _ -> default.expr it e
  in
  let module_binding it (mb : module_binding) =
    match mb.pmb_name.txt, ident_path mb.pmb_expr with
    | Some name, Some p -> aliases := (name, p) :: !aliases
    | _ -> default.module_binding it mb
  in
  let open_declaration it (od : open_declaration) =
    match ident_path od.popen_expr with
    | Some p -> opened := p :: !opened
    | None -> default.open_declaration it od
  in
  let module_expr it (me : module_expr) =
    match ident_path me with Some p -> whole := p :: !whole | None -> default.module_expr it me
  in
  let it = { default with expr; module_binding; open_declaration; module_expr } in
  it.structure it str;
  (* Every path an alias chain can stand for, the unexpanded one included;
     at most four links deep, so a cycle of aliases terminates. *)
  let rec expand depth p =
    p
    :: (if depth = 0 then []
        else
          match p with
          | head :: rest ->
            List.concat_map
              (fun (a, target) -> if String.equal a head then expand (depth - 1) (target @ rest) else [])
              !aliases
          | [] -> [])
  in
  let expand_all ps = List.concat_map (expand 4) ps in
  let qualified_expanded = Hashtbl.create (Hashtbl.length qualified) in
  Hashtbl.iter (fun n p -> List.iter (Hashtbl.add qualified_expanded n) (expand 4 p)) qualified;
  { qualified = qualified_expanded; bare; opened = expand_all !opened; whole = expand_all !whole }

(* [p] can name the module [m] ([Unit; Sub...]): a suffix of it, or all
   of it behind the library wrapper. *)
let rec is_suffix p m =
  List.equal String.equal p m || match m with _ :: rest -> is_suffix p rest | [] -> false

let denotes p m =
  p <> [] && (is_suffix p m || match p with _ :: rest -> List.equal String.equal rest m | [] -> false)

let rec prefixes = function [] -> [] | x :: rest -> [ x ] :: List.map (List.cons x) (prefixes rest)

let uses (r : refs) (e : export) =
  List.exists (fun p -> denotes p e.path) (Hashtbl.find_all r.qualified e.name)
  || (Hashtbl.mem r.bare e.name && List.exists (fun o -> denotes o e.path) r.opened)
  || List.exists (fun w -> List.exists (denotes w) (prefixes e.path)) r.whole

let mentions (r : refs) (e : export) =
  Hashtbl.mem r.bare e.name || Hashtbl.mem r.qualified e.name

let consumer_dirs = [ "lib"; "bin"; "bench"; "examples"; "benchmark" ]

let lint ~interfaces ~units =
  let units =
    List.filter_map
      (fun (rel, str) ->
        match String.split_on_char '/' rel with
        | d :: _ when List.mem d consumer_dirs -> Some (rel, refs_of_structure str)
        | _ -> None)
      units
  in
  List.concat_map
    (fun (rel, lines, sg) ->
      List.filter_map
        (fun e ->
          let used = List.exists (fun (u, r) -> (not (String.equal u e.impl)) && uses r e) units in
          let qualified = String.concat "." (e.path @ [ e.name ]) in
          let message =
            match used, e.allow with
            | true, Absent -> None
            | true, (Reasoned | Unreasoned) ->
              Some
                (Printf.sprintf
                   "%s is referenced from another unit; drop its stale [@@detlint.allow \
                    unused_export]"
                   qualified)
            | false, Reasoned -> None
            | false, Unreasoned ->
              Some
                (Printf.sprintf
                   "[@@detlint.allow unused_export] on %s needs a reason string" qualified)
            | false, Absent ->
              let own =
                List.exists (fun (u, r) -> String.equal u e.impl && mentions r e) units
              in
              Some
                (Printf.sprintf
                   "%s is %s; %s, or keep it with [@@detlint.allow unused_export \"why\"]"
                   qualified
                   (if own then "used only by its own implementation"
                    else "referenced by no unit under " ^ String.concat "/, " consumer_dirs ^ "/")
                   (if own then "take it out of the interface" else "delete it"))
          in
          Option.map
            (fun message ->
              let p = e.loc.loc_start in
              let line = p.pos_lnum in
              {
                Finding.rule = Finding.Unused_export;
                file = rel;
                line;
                col = p.pos_cnum - p.pos_bol;
                snippet =
                  (if line >= 1 && line <= Array.length lines then String.trim lines.(line - 1)
                   else "");
                message;
                origin = None;
              })
            message)
        (exports_of_signature ~rel sg))
    interfaces
  |> List.sort Finding.compare
