(* trustlint: an intraprocedural taint pass over the Parsetree.

   The invariant being checked (PAPER.md §2.3–§2.5): nothing decoded off
   the wire may influence replica state, quorum tallies, or reply caches
   until it has passed a cryptographic check. Values returned by a
   *source* (see {!Trust}) carry a taint origin; a *sanitizer* call
   returns a boolean whose truth vouches for the origins of the values
   it inspected; a *sink* reached by an origin that no dominating
   sanitizer verdict has vouched for is a finding.

   The analysis is deliberately modest — a lint, not a verifier:

   - abstract values carry a taint set, a verdict set ("if this bool is
     true, these origins were checked"), tuple structure, and local
     function values;
   - taint propagates through lets, tuples/records/constructors,
     pattern matches, pipelines, and closures;
   - [if]/[when] on a verdict-carrying condition kills the vouched
     origins in the guarded branch ([not], [&&], [||] handled);
   - calls to functions bound in the same compilation unit are inlined
     (bounded depth, recursion guard), which is what tracks the repo's
     dominant idiom — [let cost, ok = check_auth t ~src msg in ... if ok
     then ...] returning the verdict inside a tuple;
   - function arguments of unknown calls (combinators, schedulers) are
     invoked once with their parameters bound to the sibling arguments'
     taint, so sinks inside [List.iter]/[Engine.schedule] callbacks are
     still seen, and a sanitizing predicate's verdict escapes through
     [List.for_all]. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Origins and abstract values.                                         *)

module Origin = struct
  type t = { o_line : int; o_col : int; o_desc : string }

  let compare a b =
    match Int.compare a.o_line b.o_line with
    | 0 -> (
      match Int.compare a.o_col b.o_col with
      | 0 -> String.compare a.o_desc b.o_desc
      | c -> c)
    | c -> c
end

module Oset = Set.Make (Origin)
module Smap = Map.Make (String)

type fnbody = Fn_expr of expression | Fn_cases of case list

type fninfo = {
  fn_params : (Asttypes.arg_label * pattern) list;
  fn_body : fnbody;
  fn_id : string;  (* location-derived identity for the recursion guard *)
}

type absval = {
  taint : Oset.t;
  verdict : Oset.t;  (* origins vouched-for when this boolean is true *)
  verdict_neg : Oset.t;  (* origins vouched-for when it is false *)
  parts : absval list option;  (* tuple / constructor-argument structure *)
  fn : fninfo option;
  const_bool : bool option;  (* literal true/false, for precise joins *)
}

let clean =
  {
    taint = Oset.empty;
    verdict = Oset.empty;
    verdict_neg = Oset.empty;
    parts = None;
    fn = None;
    const_bool = None;
  }

(* Every origin reachable through a value, tuple structure included. *)
let rec deep_taint v =
  match v.parts with
  | None -> v.taint
  | Some ps -> List.fold_left (fun acc p -> Oset.union acc (deep_taint p)) v.taint ps

let rec deep_verdict v =
  match v.parts with
  | None -> v.verdict
  | Some ps -> List.fold_left (fun acc p -> Oset.union acc (deep_verdict p)) v.verdict ps

(* Join two branch results. Taint unions. Verdicts intersect — a joined
   boolean only vouches for what every way of being true vouches for —
   except that a literal [false] branch vouches vacuously (it is never
   true), so it defers to the other side; dually for [verdict_neg]. *)
let rec join a b =
  let verdict =
    if a.const_bool = Some false then b.verdict
    else if b.const_bool = Some false then a.verdict
    else Oset.inter a.verdict b.verdict
  in
  let verdict_neg =
    if a.const_bool = Some true then b.verdict_neg
    else if b.const_bool = Some true then a.verdict_neg
    else Oset.inter a.verdict_neg b.verdict_neg
  in
  let parts =
    match (a.parts, b.parts) with
    | Some xs, Some ys when List.length xs = List.length ys -> Some (List.map2 join xs ys)
    | Some xs, None when Oset.is_empty b.taint -> Some xs
    | None, Some ys when Oset.is_empty a.taint -> Some ys
    | _ -> None
  in
  {
    taint = Oset.union a.taint b.taint;
    verdict;
    verdict_neg;
    parts;
    fn = (match a.fn with Some _ -> a.fn | None -> b.fn);
    const_bool = (if a.const_bool = b.const_bool then a.const_bool else None);
  }

let join_all = function [] -> clean | v :: vs -> List.fold_left join v vs

(* A data-flavoured copy: what a value contributes when absorbed into a
   larger structure (drops verdict/fn/parts). *)
let as_data v = { clean with taint = deep_taint v }

(* ------------------------------------------------------------------ *)
(* Analysis context.                                                    *)

type ctx = {
  rel : string;
  lines : string array;
  specs : Trust.spec list;
  mutable out : Finding.t list;
  mutable allows : string list list;  (* active suppression-attribute stack *)
  mutable stack : string list;  (* function ids currently being inlined *)
  mutable depth : int;
}

type env = { vars : absval Smap.t; killed : Oset.t }

let max_inline_depth = 6

let snippet_at ctx line =
  if line >= 1 && line <= Array.length ctx.lines then String.trim ctx.lines.(line - 1) else ""

(* Suppression attributes: [@trustlint.allow] (optionally with a
   justification string) suppresses tainted_sink; [@detlint.allow rule]
   keeps working for any rule, trustlint's included. *)
let allow_attr_rules (attrs : attributes) =
  List.concat_map
    (fun (a : attribute) ->
      let payload_names () =
        match a.attr_payload with
        | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] ->
          let rec names e =
            match e.pexp_desc with
            | Pexp_ident { txt = Longident.Lident s; _ } -> [ s ]
            | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
            | Pexp_apply (f, args) -> names f @ List.concat_map (fun (_, a) -> names a) args
            | Pexp_tuple es -> List.concat_map names es
            | _ -> []
          in
          names e
        | _ -> []
      in
      match a.attr_name.txt with
      | "detlint.allow" -> payload_names ()
      | "trustlint.allow" ->
        (* The payload, if any, is the justification naming the covering
           check — documentation, not a rule selector. *)
        [ Finding.rule_name Finding.Tainted_sink ]
      | _ -> [])
    attrs

let with_allows ctx rules f =
  if rules = [] then f ()
  else begin
    ctx.allows <- rules :: ctx.allows;
    Fun.protect ~finally:(fun () -> ctx.allows <- List.tl ctx.allows) f
  end

let emit ctx (loc : Location.t) ~(origin : Origin.t) ~sink_desc =
  let name = Finding.rule_name Finding.Tainted_sink in
  if not (List.exists (List.mem name) ctx.allows) then begin
    let p = loc.loc_start in
    let line = p.pos_lnum and col = p.pos_cnum - p.pos_bol in
    ctx.out <-
      {
        Finding.rule = Finding.Tainted_sink;
        file = ctx.rel;
        line;
        col;
        snippet = snippet_at ctx line;
        message =
          Printf.sprintf
            "wire-tainted value (%s, line %d) reaches %s without crossing a sanitizer; verify \
             it first, or annotate the covering check with [@trustlint.allow \"...\"]"
            origin.Origin.o_desc origin.Origin.o_line sink_desc;
        origin = Some (origin.Origin.o_line, origin.Origin.o_col);
      }
      :: ctx.out
  end

let check_sink ctx env (loc : Location.t) ~sink_desc v =
  let live = Oset.diff (deep_taint v) env.killed in
  Oset.iter (fun origin -> emit ctx loc ~origin ~sink_desc) live

(* ------------------------------------------------------------------ *)
(* Patterns.                                                            *)

let rec bind_pat env (p : pattern) (v : absval) =
  match p.ppat_desc with
  | Ppat_var s -> { env with vars = Smap.add s.txt v env.vars }
  | Ppat_alias (p, s) -> bind_pat { env with vars = Smap.add s.txt v env.vars } p v
  | Ppat_tuple ps -> (
    match v.parts with
    | Some parts when List.length parts = List.length ps ->
      List.fold_left2 bind_pat env ps parts
    | _ -> List.fold_left (fun env p -> bind_pat env p (as_data v)) env ps)
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) -> (
    match v.parts with
    | Some [ inner ] -> bind_pat env p inner
    | _ -> bind_pat env p (as_data v))
  | Ppat_record (fields, _) ->
    List.fold_left (fun env (_, p) -> bind_pat env p (as_data v)) env fields
  | Ppat_or (a, b) -> bind_pat (bind_pat env a v) b v
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_exception p | Ppat_open (_, p) -> bind_pat env p v
  | Ppat_array ps -> List.fold_left (fun env p -> bind_pat env p (as_data v)) env ps
  | _ -> env

(* ------------------------------------------------------------------ *)
(* Small syntactic helpers.                                             *)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply (a, b) -> flatten_lid a @ flatten_lid b

let rec collect_params acc (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, body) -> collect_params ((lbl, pat) :: acc) body
  | Pexp_newtype (_, body) -> collect_params acc body
  | _ -> (List.rev acc, e)

let fn_id_of (e : expression) =
  let p = e.pexp_loc.loc_start in
  Printf.sprintf "%s:%d:%d" p.pos_fname p.pos_lnum p.pos_cnum

let fninfo_of (e : expression) =
  match e.pexp_desc with
  | Pexp_fun _ ->
    let params, body = collect_params [] e in
    Some { fn_params = params; fn_body = Fn_expr body; fn_id = fn_id_of e }
  | Pexp_function cases ->
    Some
      {
        fn_params = [ (Asttypes.Nolabel, { ppat_desc = Ppat_any; ppat_loc = e.pexp_loc;
                                           ppat_loc_stack = []; ppat_attributes = [] }) ];
        fn_body = Fn_cases cases;
        fn_id = fn_id_of e;
      }
  | _ -> None

(* Combinators whose result is the kept subset of their input: a
   sanitizing predicate discharges the element taint of what survives. *)
let filtering_combinators = [ "filter"; "find"; "find_opt"; "filter_map"; "partition" ]

(* ------------------------------------------------------------------ *)
(* Expressions.                                                         *)

let rec eval ctx env (e : expression) : absval =
  with_allows_v ctx (allow_attr_rules e.pexp_attributes) (fun () -> eval_desc ctx env e)

and with_allows_v ctx rules f =
  if rules = [] then f ()
  else begin
    ctx.allows <- rules :: ctx.allows;
    Fun.protect ~finally:(fun () -> ctx.allows <- List.tl ctx.allows) f
  end

and eval_desc ctx env (e : expression) : absval =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident s; _ } -> (
    match Smap.find_opt s env.vars with Some v -> v | None -> clean)
  | Pexp_ident _ -> clean
  | Pexp_constant _ -> clean
  | Pexp_construct ({ txt = Longident.Lident "true"; _ }, None) ->
    { clean with const_bool = Some true }
  | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) ->
    { clean with const_bool = Some false }
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> clean
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
    let v = eval ctx env arg in
    analyze_if_fn ctx env v;
    { clean with taint = v.taint; parts = Some [ v ] }
  | Pexp_tuple es ->
    let vs = List.map (eval ctx env) es in
    { clean with parts = Some vs }
  | Pexp_record (fields, base) ->
    (* A function stored in a record field (a service's [execute], a
       codec's hook) escapes this analysis — give its body one pass with
       clean parameters so sources *inside* it still reach sinks. *)
    let vs = List.map (fun (_, fe) -> eval ctx env fe) fields in
    List.iter (analyze_if_fn ctx env) vs;
    let bv = match base with Some b -> [ eval ctx env b ] | None -> [] in
    { clean with taint = List.fold_left (fun acc v -> Oset.union acc (deep_taint v)) Oset.empty (vs @ bv) }
  | Pexp_field (r, _) ->
    let v = eval ctx env r in
    { clean with taint = deep_taint v }
  | Pexp_setfield (r, fld, value) ->
    ignore (eval ctx env r);
    let v = eval ctx env value in
    check_sink ctx env e.pexp_loc
      ~sink_desc:(Printf.sprintf "a state write (%s <- ...)" (String.concat "." (flatten_lid fld.txt)))
      v;
    clean
  | Pexp_array es ->
    let vs = List.map (eval ctx env) es in
    { clean with taint = List.fold_left (fun acc v -> Oset.union acc (deep_taint v)) Oset.empty vs }
  | Pexp_let (_, vbs, body) ->
    let env' =
      List.fold_left
        (fun acc vb ->
          let v =
            with_allows_v ctx (allow_attr_rules vb.pvb_attributes) (fun () ->
                eval ctx env vb.pvb_expr)
          in
          bind_pat acc vb.pvb_pat v)
        env vbs
    in
    eval ctx env' body
  | Pexp_fun _ | Pexp_function _ -> { clean with fn = fninfo_of e }
  | Pexp_apply (f, args) -> eval_apply ctx env e f args
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    let sv = eval ctx env scrut in
    let results =
      List.map
        (fun (c : case) ->
          let env' = bind_pat env c.pc_lhs sv in
          let env' =
            match c.pc_guard with
            | None -> env'
            | Some g ->
              let gv = eval ctx env' g in
              { env' with killed = Oset.union env'.killed gv.verdict }
          in
          with_allows_v ctx (allow_attr_rules c.pc_rhs.pexp_attributes) (fun () ->
              eval ctx env' c.pc_rhs))
        cases
    in
    join_all results
  | Pexp_ifthenelse (c, t, f) ->
    let cv = eval ctx env c in
    let tv = eval ctx { env with killed = Oset.union env.killed cv.verdict } t in
    let fv =
      match f with
      | Some f -> eval ctx { env with killed = Oset.union env.killed cv.verdict_neg } f
      | None -> clean
    in
    join tv fv
  | Pexp_sequence (a, b) ->
    ignore (eval ctx env a);
    eval ctx env b
  | Pexp_while (c, body) ->
    ignore (eval ctx env c);
    ignore (eval ctx env body);
    clean
  | Pexp_for (pat, lo, hi, _, body) ->
    ignore (eval ctx env lo);
    ignore (eval ctx env hi);
    ignore (eval ctx (bind_pat env pat clean) body);
    clean
  | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) | Pexp_assert inner
  | Pexp_lazy inner | Pexp_newtype (_, inner) | Pexp_open (_, inner) ->
    eval ctx env inner
  | Pexp_letmodule (_, _, body) | Pexp_letexception (_, body) -> eval ctx env body
  | _ -> clean

(* Invoke a function value: bind parameters to argument values and
   evaluate the body, under the caller's env (free variables and killed
   origins are the caller's — inlining, not a summary). One not inlined
   again (on the stack, or past the depth bound) still runs the
   callbacks it is passed, so sinks in them are seen; its result is clean. *)
and invoke ctx env (fi : fninfo) (args : (Asttypes.arg_label * absval) list) : absval =
  if List.mem fi.fn_id ctx.stack || ctx.depth >= max_inline_depth then begin
    ignore (generic_apply ctx env [] args);
    clean
  end
  else begin
    ctx.stack <- fi.fn_id :: ctx.stack;
    ctx.depth <- ctx.depth + 1;
    Fun.protect
      ~finally:(fun () ->
        ctx.stack <- List.tl ctx.stack;
        ctx.depth <- ctx.depth - 1)
      (fun () ->
        (* Match labelled arguments to labelled parameters; the rest
           positionally. *)
        let labelled, positional =
          List.partition (fun (l, _) -> l <> Asttypes.Nolabel) args
        in
        let label_name = function
          | Asttypes.Labelled s | Asttypes.Optional s -> Some s
          | Asttypes.Nolabel -> None
        in
        let remaining = ref positional in
        let env' =
          List.fold_left
            (fun acc (plbl, pat) ->
              let v =
                match label_name plbl with
                | Some name -> (
                  match
                    List.find_opt
                      (fun (albl, _) -> label_name albl = Some name)
                      labelled
                  with
                  | Some (_, v) -> v
                  | None -> clean)
                | None -> (
                  match !remaining with
                  | (_, v) :: rest ->
                    remaining := rest;
                    v
                  | [] -> clean)
              in
              bind_pat acc pat v)
            env fi.fn_params
        in
        match fi.fn_body with
        | Fn_expr body -> eval ctx env' body
        | Fn_cases cases ->
          (* [function] — the single implicit argument is the scrutinee. *)
          let sv = match args with (_, v) :: _ -> v | [] -> clean in
          join_all
            (List.map
               (fun (c : case) ->
                 let env'' = bind_pat env' c.pc_lhs sv in
                 let env'' =
                   match c.pc_guard with
                   | None -> env''
                   | Some g ->
                     let gv = eval ctx env'' g in
                     { env'' with killed = Oset.union env''.killed gv.verdict }
                 in
                 eval ctx env'' c.pc_rhs)
               cases))
  end

(* Give a function value that is about to escape the analysis (stored in
   a record field or constructor) one pass with clean parameters, so a
   source→sink flow wholly inside its body is still reported. Bounded
   unrolling handles staged constructors that return further closures. *)
and analyze_if_fn ctx env v =
  let rec go n v =
    match v.fn with
    | Some fi when n < 4 -> go (n + 1) (invoke ctx env fi [])
    | _ -> ()
  in
  go 0 v

and eval_apply ctx env (e : expression) (f : expression) args : absval =
  let eval_args () = List.map (fun (l, a) -> (l, eval ctx env a)) args in
  match f.pexp_desc with
  | Pexp_ident { txt = Longident.Lident "|>"; _ } -> (
    match args with
    | [ (_, x); (_, g) ] -> eval_apply ctx env e g [ (Asttypes.Nolabel, x) ]
    | _ -> generic_apply ctx env (flatten_lid (Longident.Lident "|>")) (eval_args ()))
  | Pexp_ident { txt = Longident.Lident "@@"; _ } -> (
    match args with
    | [ (_, g); (_, x) ] -> eval_apply ctx env e g [ (Asttypes.Nolabel, x) ]
    | _ -> generic_apply ctx env [ "@@" ] (eval_args ()))
  | Pexp_ident { txt = Longident.Lident "not"; _ } -> (
    match eval_args () with
    | [ (_, v) ] ->
      { clean with verdict = v.verdict_neg; verdict_neg = v.verdict;
        const_bool = (match v.const_bool with Some b -> Some (not b) | None -> None) }
    | vs -> join_all (List.map snd vs))
  | Pexp_ident { txt = Longident.Lident "&&"; _ } -> (
    match eval_args () with
    | [ (_, a); (_, b) ] ->
      { clean with verdict = Oset.union a.verdict b.verdict }
    | vs -> join_all (List.map snd vs))
  | Pexp_ident { txt = Longident.Lident "||"; _ } -> (
    match eval_args () with
    | [ (_, a); (_, b) ] ->
      { clean with verdict_neg = Oset.union a.verdict_neg b.verdict_neg }
    | vs -> join_all (List.map snd vs))
  | Pexp_ident { txt = Longident.Lident ":="; _ } -> (
    let vs = eval_args () in
    match vs with
    | [ _; (_, v) ] ->
      check_sink ctx env e.pexp_loc ~sink_desc:"a reference-cell state write (:=)" v;
      clean
    | _ -> join_all (List.map snd vs))
  | Pexp_ident lid -> dispatch_call ctx env e (flatten_lid lid.txt) args
  | Pexp_field (r, fld) ->
    (* A function stored in a record field, e.g. [instance.Service.execute
       ~op] — a declarable sink via an attribute on the label. *)
    ignore (eval ctx env r);
    dispatch_call ctx env e (flatten_lid fld.txt) args
  | Pexp_fun _ | Pexp_function _ -> (
    match fninfo_of f with
    | Some fi -> invoke ctx env fi (List.map (fun (l, a) -> (l, eval ctx env a)) args)
    | None -> join_all (List.map snd (eval_args ())))
  | _ ->
    let fv = eval ctx env f in
    let vs = eval_args () in
    (match fv.fn with
    | Some fi -> invoke ctx env fi vs
    | None -> join_all (List.map snd vs))

and dispatch_call ctx env (e : expression) path args : absval =
  let argvals = List.map (fun (l, a) -> (l, eval ctx env a)) args in
  let arg_taint =
    List.fold_left (fun acc (_, v) -> Oset.union acc (deep_taint v)) Oset.empty argvals
  in
  match Trust.find_spec ctx.specs ~rel:ctx.rel ~role:Trust.Source path with
  | Some spec ->
    let p = e.pexp_loc.loc_start in
    let origin =
      { Origin.o_line = p.pos_lnum; o_col = p.pos_cnum - p.pos_bol; o_desc = spec.Trust.sp_desc }
    in
    { clean with taint = Oset.add origin arg_taint }
  | None -> (
    match Trust.find_spec ctx.specs ~rel:ctx.rel ~role:Trust.Sanitizer path with
    | Some _ ->
      let checked =
        List.fold_left
          (fun acc (_, v) -> Oset.union acc (Oset.union (deep_taint v) (deep_verdict v)))
          Oset.empty argvals
      in
      (* A locally-defined function shadowing a sanitizer name still gets
         inlined so tuple-shaped verdicts (cost, ok) keep their
         structure; the spec verdict is layered on top. *)
      let inlined = try_inline ctx env path argvals in
      let base = match inlined with Some v -> v | None -> clean in
      let add_verdict v = { v with verdict = Oset.union v.verdict checked } in
      (match base.parts with
      | Some ps ->
        (* Vouch through the boolean component(s) of a returned tuple. *)
        { base with parts = Some (List.map add_verdict ps) ; verdict = Oset.union base.verdict checked }
      | None -> add_verdict base)
    | None -> (
      match Trust.find_spec ctx.specs ~rel:ctx.rel ~role:Trust.Sink path with
      | Some spec ->
        List.iter
          (fun (_, v) ->
            check_sink ctx env e.pexp_loc
              ~sink_desc:(Printf.sprintf "%s (%s)" spec.Trust.sp_desc
                            (String.concat "." spec.Trust.sp_path))
              v)
          argvals;
        clean
      | None -> (
        match try_inline ctx env path argvals with
        | Some v -> v
        | None -> generic_apply ctx env path argvals)))

(* Calls to functions bound in this compilation unit are inlined. *)
and try_inline ctx env path argvals =
  match path with
  | [ name ] -> (
    match Smap.find_opt name env.vars with
    | Some { fn = Some fi; _ } -> Some (invoke ctx env fi argvals)
    | _ -> None)
  | _ -> None

(* Unknown callee: join argument taints/verdicts; invoke any function
   arguments once with parameters bound to the siblings' taint, so
   callback bodies are analyzed and a predicate's verdict escapes. *)
and generic_apply ctx env path argvals =
  let data_args = List.filter (fun (_, v) -> v.fn = None) argvals in
  let sibling_taint =
    List.fold_left (fun acc (_, v) -> Oset.union acc (deep_taint v)) Oset.empty data_args
  in
  let element = { clean with taint = sibling_taint } in
  let callback_results =
    List.filter_map
      (fun (_, v) ->
        match v.fn with
        | Some fi ->
          Some (invoke ctx env fi [ (Asttypes.Nolabel, element); (Asttypes.Nolabel, element) ])
        | None -> None)
      argvals
  in
  let cb = join_all callback_results in
  let filtering =
    match List.rev path with last :: _ -> List.mem last filtering_combinators | [] -> false
  in
  let taint =
    if filtering then Oset.diff sibling_taint cb.verdict else Oset.union sibling_taint cb.taint
  in
  {
    clean with
    taint;
    verdict =
      List.fold_left (fun acc (_, v) -> Oset.union acc v.verdict) cb.verdict data_args;
  }

(* ------------------------------------------------------------------ *)
(* Structures.                                                          *)

let rec process_structure ctx env (str : structure) =
  (* First pass: build the module-level environment (function values are
     captured unanalyzed), then analyze every function body directly with
     clean parameters. Handlers called with pre-decoded parameters are
     covered by inlining from the functions that decode. *)
  let env =
    List.fold_left
      (fun env (item : structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.fold_left
            (fun acc vb ->
              let v =
                match fninfo_of vb.pvb_expr with
                | Some fi -> { clean with fn = Some fi }
                | None -> clean  (* module-level data: analyzed below *)
              in
              bind_pat acc vb.pvb_pat v)
            env vbs
        | _ -> env)
      env str
  in
  List.iter
    (fun (item : structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            with_allows ctx (allow_attr_rules vb.pvb_attributes) (fun () ->
                match fninfo_of vb.pvb_expr with
                | Some fi -> ignore (invoke ctx env fi [])
                | None -> ignore (eval ctx env vb.pvb_expr)))
          vbs
      | Pstr_eval (e, attrs) ->
        with_allows ctx (allow_attr_rules attrs) (fun () -> ignore (eval ctx env e))
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
        process_structure ctx env sub
      | _ -> ())
    str

let lint_structure ~rel ~lines ~specs (str : structure) =
  let ctx = { rel; lines; specs; out = []; allows = []; stack = []; depth = 0 } in
  process_structure ctx { vars = Smap.empty; killed = Oset.empty } str;
  List.sort_uniq Finding.compare ctx.out
