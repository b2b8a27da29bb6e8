(* An expression compiles to a closure over the row: column references
   become array reads and operators are dispatched once, at compile
   time. What evaluation raises is raised by the closure, only when a
   row reaches it. *)

exception Eval_error of string

type ctx = { time : unit -> float; random : unit -> int64 }
type t = Value.t array -> Value.t

let aggregates = [ "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let rec is_aggregate = function
  | Ast.Call (name, args) -> List.mem name aggregates || List.exists is_aggregate args
  | Ast.Binop (_, a, b) -> is_aggregate a || is_aggregate b
  | Ast.Unop (_, a) | Ast.Is_null (a, _) -> is_aggregate a
  | Ast.Like (a, b) -> is_aggregate a || is_aggregate b
  | Ast.Lit _ | Ast.Col _ | Ast.Star -> false

let like_match ~pattern text =
  let np = String.length pattern and nt = String.length text in
  (* Memoized recursion over (pattern index, text index). *)
  let memo = Hashtbl.create 16 in
  let rec go pi ti =
    match Hashtbl.find_opt memo (pi, ti) with
    | Some v -> v
    | None ->
      let v =
        if pi = np then ti = nt
        else begin
          match pattern.[pi] with
          | '%' -> (ti <= nt && go (pi + 1) ti) || (ti < nt && go pi (ti + 1))
          | '_' -> ti < nt && go (pi + 1) (ti + 1)
          | c ->
            ti < nt
            && Char.lowercase_ascii c = Char.lowercase_ascii text.[ti]
            && go (pi + 1) (ti + 1)
        end
      in
      Hashtbl.add memo (pi, ti) v;
      v
  in
  go 0 0

let numeric_binop op a b =
  match (Value.as_number a, Value.as_number b) with
  | Some x, Some y -> begin
    match (a, b, op) with
    | Value.Int xi, Value.Int yi, "+" -> Value.Int (xi + yi)
    | Value.Int xi, Value.Int yi, "-" -> Value.Int (xi - yi)
    | Value.Int xi, Value.Int yi, "*" -> Value.Int (xi * yi)
    | Value.Int xi, Value.Int yi, "%" when yi <> 0 -> Value.Int (xi mod yi)
    | Value.Int xi, Value.Int yi, "/" when yi <> 0 -> Value.Int (xi / yi)
    | _, _, "+" -> Value.Real (x +. y)
    | _, _, "-" -> Value.Real (x -. y)
    | _, _, "*" -> Value.Real (x *. y)
    | _, _, "/" when y <> 0.0 -> Value.Real (x /. y)
    | _, _, ("/" | "%") -> Value.Null
    | _ -> raise (Eval_error ("bad numeric operator " ^ op))
  end
  | _ -> Value.Null

let fail msg : t = fun _ -> raise (Eval_error msg)

(* Result constructors are written out per branch so each is a shared
   constant, never an allocation. *)
let of_bool b = if b then Value.Int 1 else Value.Int 0

let compile ctx resolve e =
  let rec go (e : Ast.expr) : t =
    match e with
    | Ast.Lit v -> fun _ -> v
    | Ast.Star -> fail "misplaced *"
    | Ast.Col (q, name) -> (
      match resolve q name with Ok i -> fun row -> row.(i) | Error msg -> fail msg)
    | Ast.Unop ("NOT", a) ->
      let a = go a in
      fun row ->
        let v = a row in
        if Value.is_null v then Value.Null else of_bool (not (Value.truthy v))
    | Ast.Unop ("-", a) -> (
      let a = go a in
      fun row ->
        match a row with
        | Value.Int i -> Value.Int (-i)
        | Value.Real f -> Value.Real (-.f)
        | Value.Null -> Value.Null
        | Value.Text _ -> Value.Null)
    | Ast.Unop (op, _) -> fail ("unknown unary operator " ^ op)
    | Ast.Is_null (a, positive) ->
      let a = go a in
      fun row -> of_bool (Bool.equal (Value.is_null (a row)) positive)
    | Ast.Like (a, p) -> (
      let a = go a and p = go p in
      fun row ->
        match (a row, p row) with
        | Value.Text s, Value.Text pat -> of_bool (like_match ~pattern:pat s)
        | (Value.Null | Value.Int _ | Value.Real _ | Value.Text _), _ -> Value.Null)
    | Ast.Binop ("AND", a, b) ->
      (* Three-valued logic with short-circuit on definite false. *)
      let a = go a and b = go b in
      fun row ->
        let va = a row in
        if (not (Value.is_null va)) && not (Value.truthy va) then Value.Int 0
        else begin
          let vb = b row in
          if (not (Value.is_null vb)) && not (Value.truthy vb) then Value.Int 0
          else if Value.is_null va || Value.is_null vb then Value.Null
          else Value.Int 1
        end
    | Ast.Binop ("OR", a, b) ->
      let a = go a and b = go b in
      fun row ->
        let va = a row in
        if (not (Value.is_null va)) && Value.truthy va then Value.Int 1
        else begin
          let vb = b row in
          if (not (Value.is_null vb)) && Value.truthy vb then Value.Int 1
          else if Value.is_null va || Value.is_null vb then Value.Null
          else Value.Int 0
        end
    | Ast.Binop ("||", a, b) -> (
      let a = go a and b = go b in
      fun row ->
        match (a row, b row) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | x, y -> Value.Text (Value.to_string x ^ Value.to_string y))
    | Ast.Binop (("=" | "<>" | "<" | "<=" | ">" | ">=") as op, a, b) ->
      let holds : int -> bool =
        match op with
        | "=" -> fun c -> c = 0
        | "<>" -> fun c -> c <> 0
        | "<" -> fun c -> c < 0
        | "<=" -> fun c -> c <= 0
        | ">" -> fun c -> c > 0
        | _ -> fun c -> c >= 0
      in
      let a = go a and b = go b in
      fun row ->
        let va = a row and vb = b row in
        if Value.is_null va || Value.is_null vb then Value.Null
        else of_bool (holds (Value.compare_sql va vb))
    | Ast.Binop (("+" | "-" | "*" | "/" | "%") as op, a, b) ->
      let a = go a and b = go b in
      fun row -> numeric_binop op (a row) (b row)
    | Ast.Binop (op, _, _) -> fail ("unknown operator " ^ op)
    | Ast.Call ("LENGTH", [ a ]) -> (
      let a = go a in
      fun row ->
        match a row with
        | Value.Null -> Value.Null
        | v -> Value.Int (String.length (Value.to_string v)))
    | Ast.Call ("ABS", [ a ]) -> (
      let a = go a in
      fun row ->
        match a row with
        | Value.Int i -> Value.Int (abs i)
        | Value.Real f -> Value.Real (Float.abs f)
        | Value.Null -> Value.Null
        | Value.Text _ -> Value.Null)
    | Ast.Call ("UPPER", [ a ]) -> (
      let a = go a in
      fun row ->
        match a row with Value.Text s -> Value.Text (String.uppercase_ascii s) | v -> v)
    | Ast.Call ("LOWER", [ a ]) -> (
      let a = go a in
      fun row ->
        match a row with Value.Text s -> Value.Text (String.lowercase_ascii s) | v -> v)
    | Ast.Call ("COALESCE", args) ->
      let args = List.map go args in
      fun row ->
        let rec first = function
          | [] -> Value.Null
          | a :: rest ->
            let v = a row in
            if Value.is_null v then first rest else v
        in
        first args
    | Ast.Call ("RANDOM", []) -> fun _ -> Value.Int (Int64.to_int (ctx.random ()) land max_int)
    | Ast.Call ("NOW", []) | Ast.Call ("CURRENT_TIMESTAMP", []) ->
      fun _ -> Value.Real (ctx.time ())
    | Ast.Call (name, _) when List.mem name aggregates ->
      fail (name ^ " used outside an aggregating select")
    | Ast.Call (name, _) -> fail ("unknown function " ^ name)
  in
  go e

let eval (e : t) row = e row
