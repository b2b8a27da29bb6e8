type rule = { sr_table : string; sr_column : string }

type topology = { t_shards : int; t_rules : rule list }

let topology ~shards rules =
  if shards < 1 then invalid_arg "Shard.topology: shards must be >= 1";
  { t_shards = shards; t_rules = rules }

let shards t = t.t_shards

let name_eq a b = String.equal (String.lowercase_ascii a) (String.lowercase_ascii b)

let rule_for t table = List.find_opt (fun r -> name_eq r.sr_table table) t.t_rules

(* FNV-1a 64-bit over the value's canonical key bytes. Deliberately not
   [Hashtbl.hash]: row placement is part of the replicated state's
   definition, so it must be pinned to an explicit algorithm, not a
   runtime's polymorphic hash. *)
let fnv_offset = -3750763034362895579L (* 0xcbf29ce484222325 *)
let fnv_prime = 1099511628211L

let fnv1a s =
  let h = ref fnv_offset in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let shard_of_value t v =
  (* SQL compares Int 5 and Real 5.0 equal, so they must hash alike. *)
  let v =
    match v with
    | Value.Real r when Float.is_integer r && Float.abs r < 4.611686018427387904e18 ->
      Value.Int (int_of_float r)
    | v -> v
  in
  let h = Int64.logand (fnv1a (Value.key_encode v)) 0x3FFFFFFFFFFFFFFFL in
  Int64.to_int (Int64.rem h (Int64.of_int t.t_shards))

let shard_of_int t k = shard_of_value t (Value.Int k)

(* --- statement splitting --- *)

let split_statements sql =
  let n = String.length sql in
  let pieces = ref [] in
  let start = ref 0 in
  let flush stop =
    let piece = String.trim (String.sub sql !start (stop - !start)) in
    if String.length piece > 0 then pieces := piece :: !pieces;
    start := stop + 1
  in
  let i = ref 0 in
  while !i < n do
    (match sql.[!i] with
    | '\'' ->
      (* Quoted string with '' escaping: scan to the closing quote. *)
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        if Char.equal sql.[!i] '\'' then
          if !i + 1 < n && Char.equal sql.[!i + 1] '\'' then i := !i + 2 else fin := true
        else incr i
      done
    | '-' when !i + 1 < n && Char.equal sql.[!i + 1] '-' ->
      while !i < n && not (Char.equal sql.[!i] '\n') do
        incr i
      done;
      decr i
    | '/' when !i + 1 < n && Char.equal sql.[!i + 1] '*' ->
      i := !i + 2;
      while !i + 1 < n && not (Char.equal sql.[!i] '*' && Char.equal sql.[!i + 1] '/') do
        incr i
      done;
      incr i
    | ';' -> flush !i
    | _ -> ());
    incr i
  done;
  if !start < n then flush n;
  List.rev !pieces

(* --- routing --- *)

type route = Single of int | Cross of int list

let all_shards t = List.init t.t_shards Fun.id

let rec conjuncts e acc =
  match e with
  | Ast.Binop ("AND", a, b) -> conjuncts a (conjuncts b acc)
  | e -> e :: acc

(* Equality pins on the partition column among the top-level AND
   conjuncts. [names] are the spellings that may qualify the column
   (table name and alias); an unqualified column always matches — at
   routing time there is no catalog to resolve ambiguity, and a wrong
   guess only widens the route to a still-correct scatter. *)
let where_pins ~names ~column w =
  let qualifier_ok = function
    | None -> true
    | Some q -> List.exists (name_eq q) names
  in
  let pin = function
    | Ast.Binop ("=", Ast.Col (q, c), Ast.Lit v) | Ast.Binop ("=", Ast.Lit v, Ast.Col (q, c))
      when name_eq c column && qualifier_ok q ->
      Some v
    | _ -> None
  in
  match w with None -> [] | Some w -> List.filter_map pin (conjuncts w [])

let table_route t ~table ~names where =
  match rule_for t table with
  | None -> [ 0 ]
  | Some r -> (
    match where_pins ~names ~column:r.sr_column where with
    | [] -> all_shards t
    | pins -> List.map (shard_of_value t) pins)

let insert_route t ~table ~cols ~rows =
  match rule_for t table with
  | None -> [ 0 ]
  | Some r ->
    let col_index = ref (-1) in
    List.iteri (fun i c -> if name_eq c r.sr_column then col_index := i) cols;
    let row_shard row =
      let v =
        if !col_index >= 0 then
          match List.nth_opt row !col_index with Some (Ast.Lit v) -> v | Some _ | None -> Value.Null
        else Value.Null
      in
      shard_of_value t v
    in
    List.map row_shard rows

let statement_shards t stmt =
  let raw =
    match stmt with
    | Ast.Create_table _ | Ast.Drop_table _ | Ast.Create_index _ | Ast.Drop_index _
    | Ast.Begin_txn | Ast.Commit_txn | Ast.Rollback_txn ->
      all_shards t
    | Ast.Insert { ins_table; ins_cols; ins_rows } ->
      insert_route t ~table:ins_table ~cols:ins_cols ~rows:ins_rows
    | Ast.Select s -> (
      match s.Ast.sel_from with
      | [] -> [ 0 ]
      | from ->
        List.concat_map
          (fun (table, alias) ->
            let names = table :: (match alias with Some a -> [ a ] | None -> []) in
            table_route t ~table ~names s.Ast.sel_where)
          from)
    | Ast.Update { upd_table; upd_where; _ } ->
      table_route t ~table:upd_table ~names:[ upd_table ] upd_where
    | Ast.Delete { del_table; del_where } ->
      table_route t ~table:del_table ~names:[ del_table ] del_where
  in
  List.sort_uniq Int.compare raw

let parse_pieces pieces =
  match List.map Parser.parse_one pieces with
  | stmts -> Some stmts
  | exception (Parser.Error _ | Lexer.Error _) -> None

let classify t sql =
  match split_statements sql with
  | [] -> Single 0
  | pieces -> (
    match parse_pieces pieces with
    | None -> Single 0
    | Some stmts -> (
      match List.sort_uniq Int.compare (List.concat_map (statement_shards t) stmts) with
      | [ s ] -> Single s
      | [] -> Single 0
      | l -> Cross l))

let plan t sql =
  let pieces = split_statements sql in
  match parse_pieces pieces with
  | None -> [ (0, sql) ]
  | Some stmts ->
    let routed = List.map2 (fun piece stmt -> (piece, statement_shards t stmt)) pieces stmts in
    let involved =
      List.sort_uniq Int.compare (List.concat_map (fun (_, shards) -> shards) routed)
    in
    List.map
      (fun s ->
        let script =
          String.concat "; "
            (List.filter_map
               (fun (piece, shards) -> if List.mem s shards then Some piece else None)
               routed)
        in
        (s, script))
      involved

let route_key = function
  | Single s -> string_of_int s
  | Cross l -> String.concat "," (List.map string_of_int l)
