open Parsetree

(* ------------------------------------------------------------------ *)
(* Path classification.                                                 *)

let replay_critical_dirs = [ "pbft"; "simnet"; "simdisk"; "statemgr"; "relsql"; "crypto"; "webgate" ]

let is_replay_critical rel =
  match String.split_on_char '/' rel with
  | "lib" :: d :: _ -> List.mem d replay_critical_dirs
  | _ -> false

(* Modules where bare polymorphic compare/min/max is flagged even if the
   float/bytes/arrow type heuristic below does not trip: they handle
   digests, MACs, and sequence bookkeeping whose comparisons must stay
   monomorphic. *)
let strict_poly_modules =
  [
    "lib/pbft/replica.ml";
    "lib/pbft/client.ml";
    "lib/pbft/log.ml";
    "lib/pbft/membership.ml";
    "lib/pbft/message.ml";
    "lib/pbft/session_state.ml";
    "lib/crypto/sha256.ml";
    "lib/crypto/hmac.ml";
    "lib/crypto/mac.ml";
    "lib/crypto/authenticator.ml";
    "lib/crypto/keychain.ml";
  ]

(* Digest/trace/wire code paths: float-to-text formatting here feeds
   hashes, the simulation trace, or bytes on the (simulated) wire, where
   textual float representation choices become protocol. *)
let float_format_modules =
  [
    "lib/pbft/message.ml";
    "lib/util/codec.ml";
    "lib/util/hexdump.ml";
    "lib/simnet/trace.ml";
    "lib/statemgr/merkle.ml";
    "lib/statemgr/checkpoint.ml";
    "lib/crypto/sha256.ml";
    "lib/crypto/hmac.ml";
    "lib/crypto/mac.ml";
    "lib/crypto/authenticator.ml";
    "lib/crypto/keychain.ml";
    "lib/relsql/value.ml";
    "lib/webgate/json.ml";
    "lib/harness/hostbench.ml";
  ]

(* Protocol-dispatch constructor names: the [Pbft.Message] payload
   constructors plus the [Relsql.Twopc] operation constructors. A match
   that handles three or more of these is a message-dispatch match; an
   unguarded [_] case there silently drops any constructor added later
   (dispatch_catch_all). *)
let dispatch_constructors =
  [
    "Request_msg"; "Pre_prepare"; "Prepare"; "Commit"; "Reply"; "Checkpoint_msg"; "View_change";
    "New_view"; "Session_key"; "Join_request"; "Join_challenge"; "Join_response"; "Join_reply";
    "Leave_msg"; "Fetch_meta"; "State_meta"; "Fetch_pages"; "State_pages"; "Fetch_body"; "Body";
    "Fetch_entry"; "Entry"; "Status"; "Abort";
  ]

(* The rule is scoped to the libraries that dispatch protocol messages;
   elsewhere a trailing wildcard over a Message value is how
   uninterested consumers (harness reporting, the gateway's
   frame filter) are *supposed* to look. *)
let dispatch_dirs = [ "pbft"; "relsql" ]

let in_dispatch_scope rel =
  match String.split_on_char '/' rel with
  | "lib" :: d :: _ -> List.mem d dispatch_dirs
  | _ -> false

(* Identifier components that suggest a digest/key/MAC-like value flows
   through a polymorphic [=]: "batch_digest" splits to {batch, digest}. *)
let hazard_components =
  [
    "digest";
    "mac";
    "hmac";
    "tag";
    "auth";
    "root";
    "hash";
    "key";
    "pubkey";
    "nonce";
    "challenge";
    "proof";
    "sig";
    "signature";
  ]

(* ------------------------------------------------------------------ *)
(* Small syntactic helpers.                                             *)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply (a, b) -> flatten_lid a @ flatten_lid b

(* Does a core type mention float, bytes, or an arrow anywhere? Used to
   decide whether a module's own data is unsafe under polymorphic
   comparison (floats: NaN; bytes: mutation-dependent; arrows: raises). *)
let rec type_mentions_hazard (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow _ -> true
  | Ptyp_constr (lid, args) -> (
    match flatten_lid lid.txt with
    | [ "float" ] | [ "bytes" ] | [ "Bytes"; "t" ] -> true
    | _ -> List.exists type_mentions_hazard args)
  | Ptyp_tuple ts -> List.exists type_mentions_hazard ts
  | Ptyp_alias (t, _) | Ptyp_poly (_, t) -> type_mentions_hazard t
  | _ -> false

let declaration_is_hazardous (d : type_declaration) =
  match d.ptype_kind with
  | Ptype_record labels -> List.exists (fun l -> type_mentions_hazard l.pld_type) labels
  | Ptype_variant ctors ->
    List.exists
      (fun c ->
        match c.pcd_args with
        | Pcstr_tuple ts -> List.exists type_mentions_hazard ts
        | Pcstr_record labels -> List.exists (fun l -> type_mentions_hazard l.pld_type) labels)
      ctors
  | _ -> false

let declares_hazardous_type (str : structure) =
  let found = ref false in
  let type_declaration it (d : type_declaration) =
    if declaration_is_hazardous d then found := true;
    Ast_iterator.default_iterator.type_declaration it d
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  it.structure it str;
  !found

(* Format-string scanner: a '%' conversion ending in a float specifier.
   Conservative and purely lexical; only consulted in float_format
   modules, where any float conversion deserves a look. *)
let has_float_conversion s =
  let n = String.length s in
  let rec scan i = if i >= n then false else if s.[i] = '%' then skip (i + 1) else scan (i + 1)
  and skip i =
    if i >= n then false
    else
      match s.[i] with
      | '%' -> scan (i + 1)
      | '-' | '+' | ' ' | '#' | '.' | '*' | '0' .. '9' -> skip (i + 1)
      | 'f' | 'e' | 'E' | 'g' | 'G' | 'h' | 'H' | 'F' -> true
      | _ -> scan (i + 1)
  in
  scan 0

let mentions_hazard_component name =
  List.exists (fun c -> List.mem c hazard_components) (String.split_on_char '_' (String.lowercase_ascii name))

(* Collect identifier-ish names appearing in an operand of [=]. *)
let rec expr_names (e : expression) acc =
  match e.pexp_desc with
  | Pexp_ident lid -> flatten_lid lid.txt @ acc
  | Pexp_field (e, lid) -> expr_names e (flatten_lid lid.txt @ acc)
  | Pexp_apply (f, args) ->
    expr_names f (List.fold_left (fun acc (_, a) -> expr_names a acc) acc args)
  | Pexp_tuple es | Pexp_array es -> List.fold_left (fun acc e -> expr_names e acc) acc es
  | Pexp_construct (_, Some e) | Pexp_constraint (e, _) -> expr_names e acc
  | _ -> acc

let is_string_literal (e : expression) =
  match e.pexp_desc with Pexp_constant (Pconst_string _) -> true | _ -> false

(* [String.length x = 8] style comparisons are int comparisons even when
   [x] is named like a digest; exempt [*.length] applications. *)
let is_length_application (e : expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, _) -> (
    match List.rev (flatten_lid lid.txt) with "length" :: _ -> true | _ -> false)
  | _ -> false

let operand_suspicious e =
  is_string_literal e || List.exists mentions_hazard_component (expr_names e [])

(* ------------------------------------------------------------------ *)
(* Suppression attributes.                                              *)

let allow_attr_rules (attrs : attributes) =
  List.concat_map
    (fun (a : attribute) ->
      if not (String.equal a.attr_name.txt "detlint.allow") then []
      else
        match a.attr_payload with
        | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] ->
          let rec names e =
            match e.pexp_desc with
            | Pexp_ident { txt = Longident.Lident s; _ } -> [ s ]
            | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
            | Pexp_apply (f, args) ->
              names f @ List.concat_map (fun (_, a) -> names a) args
            | Pexp_tuple es -> List.concat_map names es
            | _ -> []
          in
          names e
        | _ -> [])
    attrs

(* ------------------------------------------------------------------ *)
(* The pass.                                                            *)

type ctx = {
  rel : string;
  lines : string array;
  replay : bool;
  strict_poly : bool;
  float_fmt : bool;
  dispatch : bool;
  mutable allows : string list list;  (* stack of active allow-sets *)
  mutable out : Finding.t list;
}

let snippet_at ctx line =
  if line >= 1 && line <= Array.length ctx.lines then String.trim ctx.lines.(line - 1) else ""

let emit ctx rule (loc : Location.t) message =
  let name = Finding.rule_name rule in
  let suppressed = List.exists (List.mem name) ctx.allows in
  if not suppressed then begin
    let p = loc.loc_start in
    let line = p.pos_lnum and col = p.pos_cnum - p.pos_bol in
    ctx.out <-
      { Finding.rule; file = ctx.rel; line; col; snippet = snippet_at ctx line; message;
        origin = None }
      :: ctx.out
  end

let with_allows ctx rules f =
  if rules = [] then f ()
  else begin
    ctx.allows <- rules :: ctx.allows;
    Fun.protect ~finally:(fun () -> ctx.allows <- List.tl ctx.allows) f
  end

let hashtbl_traversals = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let check_ident ctx (lid : Longident.t) (loc : Location.t) =
  match flatten_lid lid with
  | ([ "Hashtbl"; f ] | [ "Stdlib"; "Hashtbl"; f ]) when List.mem f hashtbl_traversals ->
    if ctx.replay then
      emit ctx Finding.Hashtbl_order loc
        (Printf.sprintf
           "Hashtbl.%s visits bindings in bucket order; use Util.Sorted_tbl (or annotate an \
            order-insensitive site with [@detlint.allow hashtbl_order])"
           f)
  | [ "Hashtbl"; "hash" ] | [ "Stdlib"; "Hashtbl"; "hash" ] ->
    if ctx.replay then
      emit ctx Finding.Poly_compare loc
        "Hashtbl.hash on an abstract value depends on representation; hash a canonical encoding \
         instead"
  | ([ "compare" ] | [ "min" ] | [ "max" ] | [ "Stdlib"; "compare" ] | [ "Stdlib"; "min" ]
    | [ "Stdlib"; "max" ])
    when ctx.replay && ctx.strict_poly ->
    emit ctx Finding.Poly_compare loc
      "polymorphic compare/min/max in a module with float/bytes/function-bearing types; use \
       Int.compare, Float.compare, String.compare, ... or an explicit comparator"
  | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime" | "mktime") ] | [ "Sys"; "time" ]
    ->
    emit ctx Finding.Wall_clock loc
      "ambient host time breaks replay; thread virtual time in, or annotate host-side \
       measurement code with [@detlint.allow wall_clock]"
  | [ "Random"; ("State" | "Seed") ] -> ()
  | [ "Random"; "State"; "make_self_init" ] ->
    emit ctx Finding.Ambient_rng loc "Random.State.make_self_init seeds from the environment"
  | "Random" :: [ _ ] ->
    emit ctx Finding.Ambient_rng loc
      "global Random state is shared and unseedable per-run; use Util.Rng (or Random.State \
       threaded explicitly)"
  | ("Marshal" | "Obj") :: _ :: _ ->
    emit ctx Finding.Marshal_obj loc
      "Marshal/Obj bypass abstraction and make byte layout protocol; use Util.Codec"
  | [ "string_of_float" ] when ctx.float_fmt ->
    emit ctx Finding.Float_format loc
      "float-to-text in a digest/trace/wire path; format decimals explicitly or keep floats \
       binary (Util.Codec.W.f64)"
  | _ -> ()

let check_expr ctx (e : expression) =
  match e.pexp_desc with
  | Pexp_ident lid -> check_ident ctx lid.txt lid.loc
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident (("==" | "!=") as op); _ }; _ }, [ _; _ ])
    ->
    emit ctx Finding.Physical_eq e.pexp_loc
      (Printf.sprintf
         "physical equality (%s) depends on sharing, not value; use a structural or monomorphic \
          equality, or annotate an intentional identity check with [@detlint.allow physical_eq]"
         op)
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
        [ (_, a); (_, b) ] )
    when ctx.replay
         && (not (is_length_application a || is_length_application b))
         && (operand_suspicious a || operand_suspicious b) ->
    emit ctx Finding.Poly_compare e.pexp_loc
      (Printf.sprintf
         "polymorphic %s on a digest/key/MAC-like value; use String.equal / Bytes.equal / \
          Int.equal" op)
  | Pexp_constant (Pconst_string (s, _, _)) when ctx.float_fmt && has_float_conversion s ->
    emit ctx Finding.Float_format e.pexp_loc
      "float conversion in a format string inside a digest/trace/wire path; decimal rendering \
       choices here become protocol — annotate deliberate, pinned formats with [@detlint.allow \
       float_format]"
  | (Pexp_match (_, cases) | Pexp_function cases) when ctx.dispatch ->
    (* Message-dispatch exhaustiveness: a match (or [function]) handling
       >= 3 protocol constructors must enumerate what it ignores instead
       of hiding it behind [_], so adding a constructor is a compile
       error here, not a silently dropped message. *)
    let rec heads (p : pattern) acc =
      match p.ppat_desc with
      | Ppat_construct (lid, _) -> (
        match List.rev (flatten_lid lid.txt) with h :: _ -> h :: acc | [] -> acc)
      | Ppat_or (a, b) -> heads a (heads b acc)
      | Ppat_alias (p, _) | Ppat_constraint (p, _) -> heads p acc
      | _ -> acc
    in
    let rec wild (p : pattern) =
      match p.ppat_desc with
      | Ppat_any -> true
      | Ppat_or (a, b) -> wild a || wild b
      | Ppat_alias (p, _) | Ppat_constraint (p, _) -> wild p
      | _ -> false
    in
    let dispatch_heads =
      List.concat_map (fun (c : case) -> heads c.pc_lhs []) cases
      |> List.filter (fun h -> List.mem h dispatch_constructors)
      |> List.sort_uniq String.compare
    in
    if List.length dispatch_heads >= 3 then
      List.iter
        (fun (c : case) ->
          let handler_allows = allow_attr_rules c.pc_rhs.pexp_attributes in
          if
            c.pc_guard = None && wild c.pc_lhs
            && not
                 (List.mem (Finding.rule_name Finding.Dispatch_catch_all) handler_allows)
          then
            emit ctx Finding.Dispatch_catch_all c.pc_lhs.ppat_loc
              "unguarded _ in a protocol-message dispatch match silently drops any constructor \
               added later; enumerate the ignored constructors (| A _ | B _ -> ()) so new \
               messages fail to compile until routed")
        cases
  | Pexp_try (_, cases) ->
    List.iter
      (fun (c : case) ->
        let rec wild (p : pattern) =
          match p.ppat_desc with
          | Ppat_any -> true
          | Ppat_or (a, b) -> wild a || wild b
          | Ppat_alias (p, _) -> wild p
          | _ -> false
        in
        let handler_allows = allow_attr_rules c.pc_rhs.pexp_attributes in
        if wild c.pc_lhs && not (List.mem (Finding.rule_name Finding.Catch_all) handler_allows)
        then
          emit ctx Finding.Catch_all c.pc_lhs.ppat_loc
            "catch-all exception handler can swallow non-determinism validation failures; match \
             the specific exceptions this site expects")
      cases
  | _ -> ()

let lint_structure ~rel ~lines (str : structure) =
  let ctx =
    {
      rel;
      lines;
      replay = is_replay_critical rel;
      strict_poly = List.mem rel strict_poly_modules || declares_hazardous_type str;
      float_fmt = List.mem rel float_format_modules;
      dispatch = in_dispatch_scope rel;
      allows = [];
      out = [];
    }
  in
  let expr it (e : expression) =
    with_allows ctx (allow_attr_rules e.pexp_attributes) (fun () ->
        check_expr ctx e;
        Ast_iterator.default_iterator.expr it e)
  in
  let value_binding it (vb : value_binding) =
    with_allows ctx (allow_attr_rules vb.pvb_attributes) (fun () ->
        Ast_iterator.default_iterator.value_binding it vb)
  in
  let it = { Ast_iterator.default_iterator with expr; value_binding } in
  it.structure it str;
  List.sort_uniq Finding.compare ctx.out
