(* Access-path selection for single-table statements.

   The planner inspects the top-level AND conjuncts of a WHERE clause for
   sargable comparisons (column op literal) and picks the cheapest access
   path: a direct rowid probe when the INTEGER PRIMARY KEY is pinned, a
   bounded secondary-index scan when an indexed column is constrained, a
   full table scan otherwise. Chosen paths are *supersets*: the caller
   re-evaluates the WHERE clause once per candidate row, so a bound may
   safely overshoot (inclusive where the predicate is strict) but must
   never exclude a matching row.

   Index keys are [Value.key_encode v ^ "\x00" ^ rowid] and sort bytewise,
   which segregates values by type tag (Null < Int < Real < Text) while
   [Value.compare_sql] — the comparison the predicate actually uses —
   interleaves Int and Real numerically. Bounds therefore have to be
   computed against the *declared* column type, leaning on the storage
   invariants enforced by [coerce] at INSERT/UPDATE time: an INTEGER
   column holds Int, Null, or *unparseable* Text (never Real); a REAL
   column holds Real, Null, or unparseable Text (never Int); a TEXT
   column holds only Text or Null. Numeric bounds stay safe for the
   stray Text entries because Text sorts above every number in both
   [key_encode] byte order and [compare_sql]: a numeric upper bound
   excludes them exactly when the predicate rejects them, and a numeric
   lower bound with no upper bound scans through to them and lets the
   re-evaluated WHERE decide. *)

type access =
  | Full_scan
  | No_rows  (** a conjunct is provably unsatisfiable, e.g. [col = NULL] *)
  | Pk_probe of int  (** direct rowid lookup in the row tree *)
  | Index_scan of { idx : Catalog.index_def; lo : string option; hi : string option }
      (** bounded scan of a secondary index; [lo]/[hi] are inclusive
          entry-key bounds *)

let col_names (tbl : Catalog.table) =
  List.map (fun (c : Ast.column_def) -> String.lowercase_ascii c.col_name) tbl.tbl_cols

let pk_column (tbl : Catalog.table) =
  List.find_index (fun (c : Ast.column_def) -> c.col_pk && c.col_type = Ast.T_integer) tbl.tbl_cols

(* Coerce a value to a column's declared affinity — the same function the
   write path applies, which is what makes the storage invariants above
   hold. *)
let coerce (c : Ast.column_def) v =
  match (c.col_type, v) with
  | _, Value.Null -> Value.Null
  | Ast.T_integer, Value.Int _ -> v
  | Ast.T_integer, Value.Real f -> Value.Int (int_of_float f)
  | Ast.T_integer, Value.Text s -> (
    match int_of_string_opt s with Some i -> Value.Int i | None -> v)
  | Ast.T_real, Value.Real _ -> v
  | Ast.T_real, Value.Int i -> Value.Real (float_of_int i)
  | Ast.T_real, Value.Text s -> (
    match float_of_string_opt s with Some f -> Value.Real f | None -> v)
  | Ast.T_text, Value.Text _ -> v
  | Ast.T_text, (Value.Int _ | Value.Real _) -> Value.Text (Value.to_string v)

(* Entry-key bounds bracketing every index entry for value [v]: the entry
   key is the encoded value, a NUL separator, then an 8-byte rowid. *)
let key_floor v = Value.key_encode v ^ "\x00"
let key_ceil v = Value.key_encode v ^ "\x00" ^ String.make 8 '\xff'

(* First entry key carrying a non-Null value (Null encodes as "\x00"). *)
let above_null = "\x01"

(* --- constraint extraction --- *)

type constr =
  | C_eq of Value.t
  | C_lower of Value.t * bool  (** bound, inclusive *)
  | C_upper of Value.t * bool
  | C_is_null
  | C_not_null

let flip_op = function "<" -> ">" | "<=" -> ">=" | ">" -> "<" | ">=" -> "<=" | op -> op

let rec conjuncts (e : Ast.expr) acc =
  match e with Ast.Binop ("AND", a, b) -> conjuncts a (conjuncts b acc) | e -> e :: acc

(* NaN is poison: the predicate compares through OCaml's polymorphic
   [compare] (NaN below every float) while [key_encode] sorts NaN above —
   constraints carrying one are simply not used for planning. *)
let usable_lit = function Value.Real f when Float.is_nan f -> false | _ -> true

let constraints_of (where : Ast.expr option) =
  let of_cmp c op v =
    let col = String.lowercase_ascii c in
    match op with
    | "=" -> Some (col, C_eq v)
    | ">" -> Some (col, C_lower (v, false))
    | ">=" -> Some (col, C_lower (v, true))
    | "<" -> Some (col, C_upper (v, false))
    | "<=" -> Some (col, C_upper (v, true))
    | _ -> None
  in
  (* Negative numbers parse as [Unop ("-", Lit _)]; fold them here so
     they are as sargable as positive literals. An Int literal is at most
     [max_int], so the negation cannot overflow. *)
  let lit_of = function
    | Ast.Lit v -> Some v
    | Ast.Unop ("-", Ast.Lit (Value.Int i)) -> Some (Value.Int (-i))
    | Ast.Unop ("-", Ast.Lit (Value.Real f)) -> Some (Value.Real (-.f))
    | _ -> None
  in
  match where with
  | None -> []
  | Some w ->
    List.filter_map
      (fun (e : Ast.expr) ->
        match e with
        | Ast.Binop (op, Ast.Col (_, c), rhs) -> (
          match lit_of rhs with Some v when usable_lit v -> of_cmp c op v | _ -> None)
        | Ast.Binop (op, lhs, Ast.Col (_, c)) -> (
          match lit_of lhs with Some v when usable_lit v -> of_cmp c (flip_op op) v | _ -> None)
        | Ast.Is_null (Ast.Col (_, c), positive) ->
          Some (String.lowercase_ascii c, if positive then C_is_null else C_not_null)
        | _ -> None)
      (conjuncts w [])

(* --- bound encoding --- *)

type bound =
  | B_key of string
  | B_empty  (** the constraint excludes every storable value *)

let number_of v = match Value.as_number v with Some f -> f | None -> 0.0

(* Integer bounds for a float constraint on an INTEGER column. The
   predicate compares [float_of_int i] with the literal [x], so a stored
   int within half an ulp of [x] satisfies a non-strict bound (or an
   equality) even though it differs from [x] as an integer. Inside
   (-2^53, 2^53) the conversion is exact and bounds can be tight;
   outside, widen by one ulp before truncating so the bound can only
   overshoot — the WHERE clause filters the excess. A widened endpoint
   past the int range saturates to the matching extreme, which is safe
   there: [float_of_int max_int] rounds up to 2^62, so no int converts
   above it (resp. below [float_of_int min_int] = -2^62 exactly). *)
let int_exact = 9007199254740992.0 (* 2^53 *)

let int_lower_of_float x incl =
  if Float.abs x < int_exact then begin
    let fl = Float.floor x in
    if incl && fl = x then int_of_float x else int_of_float fl + 1
  end
  else begin
    let y = Float.pred x in
    if y >= float_of_int max_int then max_int
    else if y <= float_of_int min_int then min_int
    else int_of_float (Float.floor y)
  end

let int_upper_of_float x incl =
  if Float.abs x < int_exact then begin
    let fl = Float.floor x in
    if incl || fl <> x then int_of_float fl else int_of_float x - 1
  end
  else begin
    let y = Float.succ x in
    if y >= float_of_int max_int then max_int
    else if y <= float_of_int min_int then min_int
    else int_of_float (Float.ceil y)
  end

(* Smallest entry key an index entry of a row satisfying [col >(=) v] can
   have, given the column's declared type. Int literals use exact integer
   arithmetic; only Real literals take the float path above. *)
let lower_key (def : Ast.column_def) v incl =
  match v with
  | Value.Null -> B_empty
  | Value.Text s -> B_key (key_floor (Value.Text s))
  | Value.Int _ | Value.Real _ -> (
    match def.col_type with
    | Ast.T_integer ->
      let m =
        match v with
        | Value.Int i -> if incl || i = max_int then i else i + 1
        | Value.Real x -> int_lower_of_float x incl
        | Value.Null | Value.Text _ -> assert false
      in
      B_key (key_floor (Value.Int m))
    | Ast.T_real ->
      (* The predicate converts an Int literal with [float_of_int] too,
         so the rounded float is the exact comparison point. *)
      B_key (key_floor (Value.Real (number_of v)))
    | Ast.T_text ->
      (* Text sorts above every number, so all non-Null rows qualify. *)
      B_key above_null)

let upper_key (def : Ast.column_def) v incl =
  match v with
  | Value.Null -> B_empty
  | Value.Text s -> B_key (key_ceil (Value.Text s))
  | Value.Int _ | Value.Real _ -> (
    match def.col_type with
    | Ast.T_integer ->
      let m =
        match v with
        | Value.Int i -> if incl || i = min_int then i else i - 1
        | Value.Real x -> int_upper_of_float x incl
        | Value.Null | Value.Text _ -> assert false
      in
      B_key (key_ceil (Value.Int m))
    | Ast.T_real -> B_key (key_ceil (Value.Real (number_of v)))
    | Ast.T_text ->
      (* A TEXT column stores only Text/Null, and neither sorts below a
         number: the conjunct is unsatisfiable. *)
      B_empty)

(* --- path selection --- *)

type range_plan =
  | R_empty
  | R_none  (** no usable constraint on this column *)
  | R_range of int * string option * string option  (** score, lo, hi *)

(* Combine every constraint on one column into a single scan range.
   Equality (including IS NULL) dominates; otherwise lower bounds max
   together and upper bounds min together. Any comparison rejects NULL,
   so a range always starts at [above_null] at worst. *)
(* Entry-key range bracketing every index entry an equality constraint
   can match. Usually a single-value range, but a Real literal against an
   INTEGER column needs the whole bucket of ints that [float_of_int]
   rounds onto the literal — outside the exact band that is more than one
   int (and none of them need equal [int_of_float x]). *)
let eq_range (def : Ast.column_def) v =
  match (def.col_type, v) with
  | Ast.T_integer, Value.Real x ->
    let lo = int_lower_of_float x true and hi = int_upper_of_float x true in
    if lo > hi then
      (* Possible only when no int float-compares equal to [x] (a
         non-integral literal in the exact band), so emptiness is proven:
         an INTEGER column's other inhabitants — Null and unparseable
         Text — never compare equal to a number either. *)
      R_empty
    else R_range (3, Some (key_floor (Value.Int lo)), Some (key_ceil (Value.Int hi)))
  | _ -> (
    match coerce def v with
    | Value.Null -> R_empty
    | c ->
      let lo = key_floor c in
      (* [lo] is a key_floor; the matching ceiling shares its value
         prefix. *)
      R_range (3, Some lo, Some (lo ^ String.make 8 '\xff')))

let range_for (def : Ast.column_def) (cs : constr list) =
  let eq =
    List.find_map
      (function
        | C_eq v -> Some (eq_range def v)
        | C_is_null ->
          let lo = key_floor Value.Null in
          Some (R_range (3, Some lo, Some (lo ^ String.make 8 '\xff')))
        | _ -> None)
      cs
  in
  match eq with
  | Some plan -> plan
  | None ->
    let lo = ref None and hi = ref None and empty = ref false in
    List.iter
      (fun c ->
        match c with
        | C_lower (v, incl) -> (
          match lower_key def v incl with
          | B_empty -> empty := true
          | B_key k -> lo := Some (match !lo with Some p when p >= k -> p | _ -> k))
        | C_upper (v, incl) -> (
          match upper_key def v incl with
          | B_empty -> empty := true
          | B_key k -> hi := Some (match !hi with Some p when p <= k -> p | _ -> k))
        | C_not_null -> lo := Some (match !lo with Some p when p >= above_null -> p | _ -> above_null)
        | C_eq _ | C_is_null -> ())
      cs;
    if !empty then R_empty
    else begin
      match (!lo, !hi) with
      | None, None -> R_none
      | Some _, Some _ -> R_range (2, !lo, !hi)
      | Some _, None -> R_range (1, !lo, None)
      | None, Some h ->
        (* One-sided upper bound: any comparison still rejects NULLs, so
           start the scan just past them. *)
        R_range (1, Some above_null, Some h)
    end

let choose (tbl : Catalog.table) (where : Ast.expr option) =
  let names = col_names tbl in
  let defs = Array.of_list tbl.tbl_cols in
  let cs =
    (* Keep constraints whose column exists in this table; unknown columns
       are someone else's error to report. *)
    List.filter_map
      (fun (col, c) ->
        match List.find_index (String.equal col) names with
        | Some i -> Some (i, c)
        | None -> None)
      (constraints_of where)
  in
  let provably_empty =
    List.exists
      (fun (_, c) ->
        match c with
        | C_eq Value.Null | C_lower (Value.Null, _) | C_upper (Value.Null, _) -> true
        | _ -> false)
      cs
  in
  if provably_empty then No_rows
  else begin
    let pk_lit =
      match pk_column tbl with
      | None -> None
      | Some pki ->
        List.find_map (fun (i, c) -> match c with C_eq v when i = pki -> Some v | _ -> None) cs
    in
    let pk_access =
      match pk_lit with
      | None -> None
      | Some (Value.Int rowid) -> Some (Pk_probe rowid)
      | Some (Value.Real x) ->
        if Float.abs x >= int_exact then
          (* Outside the exact band several rowids can [float_of_int]-
             compare equal to one float; a single probe could miss
             matches, so defer to the index/scan paths below. *)
          None
        else if Float.floor x = x then Some (Pk_probe (int_of_float x))
        else Some No_rows
      | Some (Value.Text _ | Value.Null) ->
        (* The PK column stores only Int, which never compares equal to
           Text ([col = NULL] was already caught above). *)
        Some No_rows
    in
    match pk_access with
    | Some access -> access
    | None ->
      let best =
        List.fold_left
          (fun best (idx : Catalog.index_def) ->
            match List.find_index (String.equal (String.lowercase_ascii idx.idx_col)) names with
            | None -> best
            | Some ci -> (
              let on_col = List.filter_map (fun (i, c) -> if i = ci then Some c else None) cs in
              match range_for defs.(ci) on_col with
              | R_none -> best
              | R_empty -> Some (max_int, No_rows)
              | R_range (score, lo, hi) -> (
                match best with
                | Some (s, _) when s >= score -> best
                | _ -> Some (score, Index_scan { idx; lo; hi }))))
          None tbl.Catalog.tbl_indexes
      in
      (match best with Some (_, access) -> access | None -> Full_scan)
  end
