type t = {
  vfs : Vfs.t;
  pager : Pager.t;
  cat : Catalog.t;
  mutable explicit_txn : bool;
  mutable rows_scanned : int;
  mutable stmt_cache : (string, Ast.stmt list) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable planner_enabled : bool;
}

type row = Value.t array
type result = { columns : string list; rows : row list; affected : int }

type outcome = {
  res : (result, string) Stdlib.result;
  cost : float;
  pages_read : int;
  rows_scanned : int;
}

exception Sql_error of string

let sql_fail fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt

(* Process-wide execution counters, in the style of
   [Crypto.Sha256.bytes_hashed]: the bench harness samples them around a
   run to report page/row traffic per workload. *)
let pages_read_acc = ref 0
let rows_scanned_acc = ref 0
let pages_read_total () = !pages_read_acc
let rows_scanned_total () = !rows_scanned_acc

let stmt_cache_capacity = 512

let open_db vfs =
  let pager = Pager.open_pager vfs in
  let cat = Catalog.attach pager in
  ignore (Vfs.take_cost vfs);
  ignore (Pager.take_pages_touched pager);
  {
    vfs;
    pager;
    cat;
    explicit_txn = false;
    rows_scanned = 0;
    stmt_cache = Hashtbl.create 64;
    cache_hits = 0;
    cache_misses = 0;
    planner_enabled = true;
  }

let table_names t = Catalog.table_names t.cat
let stmt_cache_stats t = (t.cache_hits, t.cache_misses)
let set_planner_enabled t on = t.planner_enabled <- on

type stmt_cache = { entries : (string, Ast.stmt list) Hashtbl.t; hits : int; misses : int }

(* [Hashtbl.copy] keeps the bucket array, so the copy fills and is wiped
   exactly when the original would be; the parsed statements are
   immutable and shared. *)
let stmt_cache t =
  { entries = Hashtbl.copy t.stmt_cache; hits = t.cache_hits; misses = t.cache_misses }

let adopt_stmt_cache t c =
  t.stmt_cache <- Hashtbl.copy c.entries;
  t.cache_hits <- c.hits;
  t.cache_misses <- c.misses

(* --- row & key encodings --- *)

let rowid_key rowid =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int rowid);
  Bytes.to_string b

let rowid_of_key key = Int64.to_int (String.get_int64_be key 0)

let encode_row (r : row) =
  Util.Codec.encode (fun w () -> Util.Codec.W.list w Value.encode (Array.to_list r)) ()

let decode_row s : row = Array.of_list (Util.Codec.decode (fun r -> Util.Codec.R.list r Value.decode) s)

let index_key v rowid = Value.key_encode v ^ "\x00" ^ rowid_key rowid

(* --- helpers --- *)

let env_of t bindings =
  { Expr.bindings; env_time = t.vfs.Vfs.time; env_random = t.vfs.Vfs.random }

let const_env t = env_of t []

let table_or_fail t name =
  match Catalog.find_table t.cat name with
  | Some tbl -> tbl
  | None -> sql_fail "no such table: %s" name

let tree_of t (tbl : Catalog.table) = Btree.open_tree t.pager ~root:tbl.tbl_root

let persist_tree t (tbl : Catalog.table) tree =
  if not (Int.equal (Btree.root tree) tbl.tbl_root) then begin
    let tbl = { tbl with tbl_root = Btree.root tree } in
    Catalog.update_table t.cat tbl;
    tbl
  end
  else tbl

let col_names = Plan.col_names
let pk_column = Plan.pk_column
let coerce = Plan.coerce

let scan t (tbl : Catalog.table) f =
  let tree = tree_of t tbl in
  Btree.iter tree (fun k v ->
      t.rows_scanned <- t.rows_scanned + 1;
      f (rowid_of_key k) (decode_row v))

(* --- index maintenance --- *)

let index_insert t (tbl : Catalog.table) rowid (r : row) =
  let cols = col_names tbl in
  List.fold_left
    (fun tbl (idx : Catalog.index_def) ->
      match List.find_index (String.equal (String.lowercase_ascii idx.idx_col)) cols with
      | None -> tbl
      | Some ci ->
        let tree = Btree.open_tree t.pager ~root:idx.Catalog.idx_root in
        Btree.insert tree ~key:(index_key r.(ci) rowid) ~value:"";
        if not (Int.equal (Btree.root tree) idx.idx_root) then begin
          let idxs =
            List.map
              (fun (i : Catalog.index_def) ->
                if i.idx_name = idx.idx_name then { i with Catalog.idx_root = Btree.root tree }
                else i)
              tbl.Catalog.tbl_indexes
          in
          let tbl = { tbl with Catalog.tbl_indexes = idxs } in
          Catalog.update_table t.cat tbl;
          tbl
        end
        else tbl)
    tbl tbl.Catalog.tbl_indexes

let index_delete t (tbl : Catalog.table) rowid (r : row) =
  let cols = col_names tbl in
  List.iter
    (fun (idx : Catalog.index_def) ->
      match List.find_index (String.equal (String.lowercase_ascii idx.idx_col)) cols with
      | None -> ()
      | Some ci ->
        let tree = Btree.open_tree t.pager ~root:idx.Catalog.idx_root in
        ignore (Btree.delete tree (index_key r.(ci) rowid)))
    tbl.Catalog.tbl_indexes

(* --- DDL --- *)

let do_create_table t name cols if_not_exists =
  match Catalog.find_table t.cat name with
  | Some _ ->
    if if_not_exists then { columns = []; rows = []; affected = 0 }
    else sql_fail "table %s already exists" name
  | None ->
    if cols = [] then sql_fail "table needs at least one column";
    let pk_count = List.length (List.filter (fun (c : Ast.column_def) -> c.col_pk) cols) in
    if pk_count > 1 then sql_fail "only one PRIMARY KEY column is supported";
    let tree = Btree.create t.pager in
    Catalog.create_table t.cat
      {
        Catalog.tbl_name = name;
        tbl_cols = cols;
        tbl_root = Btree.root tree;
        tbl_next_rowid = 1;
        tbl_indexes = [];
      };
    { columns = []; rows = []; affected = 0 }

let do_drop_table t name if_exists =
  match Catalog.find_table t.cat name with
  | None ->
    if if_exists then { columns = []; rows = []; affected = 0 }
    else sql_fail "no such table: %s" name
  | Some tbl ->
    Btree.drop (tree_of t tbl);
    List.iter
      (fun (idx : Catalog.index_def) -> Btree.drop (Btree.open_tree t.pager ~root:idx.idx_root))
      tbl.tbl_indexes;
    Catalog.drop_table t.cat name;
    { columns = []; rows = []; affected = 0 }

let do_create_index t name table col if_not_exists =
  (* Index names live in one namespace (DROP INDEX takes no table), so
     uniqueness is checked catalog-wide, not per table. *)
  match Catalog.find_index t.cat name with
  | Some _ ->
    if if_not_exists then { columns = []; rows = []; affected = 0 }
    else sql_fail "index %s already exists" name
  | None ->
  let tbl = table_or_fail t table in
  let cols = col_names tbl in
  let ci =
    match List.find_index (String.equal (String.lowercase_ascii col)) cols with
    | Some i -> i
    | None -> sql_fail "no such column: %s" col
  in
  let tree = Btree.create t.pager in
  (* Backfill from existing rows. *)
  let entries = ref [] in
  scan t tbl (fun rowid r ->
      entries := (index_key r.(ci) rowid, "") :: !entries;
      true);
  List.iter (fun (k, v) -> Btree.insert tree ~key:k ~value:v) !entries;
  let idx = { Catalog.idx_name = name; idx_col = col; idx_root = Btree.root tree } in
  Catalog.update_table t.cat { tbl with Catalog.tbl_indexes = idx :: tbl.tbl_indexes };
  { columns = []; rows = []; affected = 0 }

let do_drop_index t name if_exists =
  match Catalog.find_index t.cat name with
  | None ->
    if if_exists then { columns = []; rows = []; affected = 0 }
    else sql_fail "no such index: %s" name
  | Some (tbl, idx) ->
    Btree.drop (Btree.open_tree t.pager ~root:idx.Catalog.idx_root);
    Catalog.update_table t.cat
      {
        tbl with
        Catalog.tbl_indexes =
          List.filter
            (fun (i : Catalog.index_def) -> i.idx_name <> idx.Catalog.idx_name)
            tbl.Catalog.tbl_indexes;
      };
    { columns = []; rows = []; affected = 0 }

(* --- INSERT --- *)

let do_insert t table cols rows_exprs =
  let tbl = ref (table_or_fail t table) in
  let names = col_names !tbl in
  let positions =
    match cols with
    | [] -> List.mapi (fun i _ -> i) names
    | _ ->
      List.map
        (fun c ->
          match List.find_index (String.equal (String.lowercase_ascii c)) names with
          | Some i -> i
          | None -> sql_fail "no such column: %s" c)
        cols
  in
  let count = ref 0 in
  List.iter
    (fun exprs ->
      if List.length exprs <> List.length positions then sql_fail "value count mismatch";
      let r = Array.make (List.length names) Value.Null in
      List.iteri
        (fun i e ->
          let pos = List.nth positions i in
          let cdef = List.nth !tbl.Catalog.tbl_cols pos in
          r.(pos) <- coerce cdef (Expr.eval (const_env t) e))
        exprs;
      let rowid =
        match pk_column !tbl with
        | Some pki -> begin
          match r.(pki) with
          | Value.Int v -> v
          | Value.Null ->
            let v = !tbl.Catalog.tbl_next_rowid in
            r.(pki) <- Value.Int v;
            v
          | Value.Real _ | Value.Text _ -> sql_fail "PRIMARY KEY must be an integer"
        end
        | None -> !tbl.Catalog.tbl_next_rowid
      in
      let tree = tree_of t !tbl in
      if Option.is_some (Btree.find tree (rowid_key rowid)) then
        sql_fail "UNIQUE constraint failed: rowid %d" rowid;
      Btree.insert tree ~key:(rowid_key rowid) ~value:(encode_row r);
      tbl := persist_tree t !tbl tree;
      tbl := { !tbl with Catalog.tbl_next_rowid = Int.max !tbl.Catalog.tbl_next_rowid (rowid + 1) };
      Catalog.update_table t.cat !tbl;
      tbl := index_insert t !tbl rowid r;
      incr count)
    rows_exprs;
  { columns = []; rows = []; affected = !count }

(* --- SELECT --- *)

let expr_name i (e : Ast.expr) alias =
  match alias with
  | Some a -> a
  | None -> begin
    match e with
    | Ast.Col (_, name) -> name
    | Ast.Call (f, _) -> String.lowercase_ascii f
    | _ -> Printf.sprintf "col%d" (i + 1)
  end

(* Candidate rows for a single table via the planner's access path. The
   WHERE clause is NOT applied here — paths are supersets; callers filter
   through [matching_rows]. Rows always come back in [rowid_key] byte
   order — numeric rowid order except that negative rowids sort after
   positive ones (the key is a raw big-endian int64) — so the result is
   independent of which path the planner picked. *)
let candidate_rows t (tbl : Catalog.table) (where : Ast.expr option) =
  let full_scan () =
    let acc = ref [] in
    scan t tbl (fun rowid r ->
        acc := (rowid, r) :: !acc;
        true);
    List.rev !acc
  in
  let access = if t.planner_enabled then Plan.choose tbl where else Plan.Full_scan in
  match access with
  | Plan.Full_scan -> full_scan ()
  | Plan.No_rows -> []
  | Plan.Pk_probe rowid -> begin
    t.rows_scanned <- t.rows_scanned + 1;
    match Btree.find (tree_of t tbl) (rowid_key rowid) with
    | Some rv -> [ (rowid, decode_row rv) ]
    | None -> []
  end
  | Plan.Index_scan { idx; lo; hi } ->
    let tree = Btree.open_tree t.pager ~root:idx.Catalog.idx_root in
    let row_keys = ref [] in
    Btree.iter tree ?from:lo ?upto:hi (fun k _ ->
        row_keys := String.sub k (String.length k - 8) 8 :: !row_keys;
        true);
    (* Sort the raw keys, not decoded rowids: byte order is what a full
       scan of the row tree yields, and signed order differs from it for
       negative rowids. One batched lookup walks each row-tree node once. *)
    let rows = ref [] in
    Btree.find_many (tree_of t tbl) (List.sort_uniq String.compare !row_keys) (fun rk rv ->
        t.rows_scanned <- t.rows_scanned + 1;
        Option.iter (fun rv -> rows := (rowid_of_key rk, decode_row rv) :: !rows) rv);
    List.rev !rows

(* Candidate rows with the predicate evaluated exactly once per row; the
   surviving environment is returned so SELECT/UPDATE/DELETE never pay a
   second evaluation. *)
let matching_rows t (tbl : Catalog.table) ~bname (where : Ast.expr option) =
  let names = col_names tbl in
  List.filter_map
    (fun (rowid, r) ->
      let env = env_of t [ { Expr.b_table = bname; b_cols = names; b_row = r } ] in
      let keep =
        match where with
        | None -> true
        | Some w ->
          let v = Expr.eval env w in
          (not (Value.is_null v)) && Value.truthy v
      in
      if keep then Some (rowid, r, env) else None)
    (candidate_rows t tbl where)

let eval_aggregate t groups_rows (e : Ast.expr) =
  (* Evaluate an aggregate-containing projection over a group of rows. *)
  let rec go (e : Ast.expr) =
    match e with
    | Ast.Call ("COUNT", [ Ast.Star ]) -> Value.Int (List.length groups_rows)
    | Ast.Call ("COUNT", [ arg ]) ->
      Value.Int
        (List.length
           (List.filter (fun env -> not (Value.is_null (Expr.eval env arg))) groups_rows))
    | Ast.Call (("SUM" | "AVG" | "MIN" | "MAX") as f, [ arg ]) ->
      let vals =
        List.filter_map
          (fun env ->
            let v = Expr.eval env arg in
            if Value.is_null v then None else Some v)
          groups_rows
      in
      if vals = [] then Value.Null
      else begin
        match f with
        | "MIN" -> List.fold_left (fun a v -> if Value.compare_sql v a < 0 then v else a) (List.hd vals) vals
        | "MAX" -> List.fold_left (fun a v -> if Value.compare_sql v a > 0 then v else a) (List.hd vals) vals
        | "SUM" | "AVG" ->
          let nums = List.filter_map Value.as_number vals in
          let sum = List.fold_left ( +. ) 0.0 nums in
          let all_int =
            List.for_all (fun v -> match v with Value.Int _ -> true | _ -> false) vals
          in
          if String.equal f "SUM" then
            if all_int then Value.Int (int_of_float sum) else Value.Real sum
          else Value.Real (sum /. float_of_int (List.length nums))
        | _ -> assert false
      end
    | Ast.Binop (op, a, b) -> begin
      let env1 = match groups_rows with e :: _ -> e | [] -> env_of t [] in
      ignore env1;
      (* Mixed aggregate expressions: evaluate subexpressions then combine. *)
      let va = go a and vb = go b in
      Expr.eval (env_of t []) (Ast.Binop (op, Ast.Lit va, Ast.Lit vb))
    end
    | Ast.Unop (op, a) -> Expr.eval (env_of t []) (Ast.Unop (op, Ast.Lit (go a)))
    | other -> begin
      (* Non-aggregate part: evaluate against the first row of the group
         (SQL's bare-column semantics). *)
      match groups_rows with
      | env :: _ -> Expr.eval env other
      | [] -> Value.Null
    end
  in
  go e

(* Static check: every column reference must resolve (uniquely) against
   the FROM tables — SQLite reports these at prepare time, and so do we,
   even when a table is empty. *)
let rec collect_cols acc (e : Ast.expr) =
  match e with
  | Ast.Col (q, n) -> (q, n) :: acc
  | Ast.Binop (_, a, b) | Ast.Like (a, b) -> collect_cols (collect_cols acc a) b
  | Ast.Unop (_, a) | Ast.Is_null (a, _) -> collect_cols acc a
  | Ast.Call (_, args) -> List.fold_left collect_cols acc args
  | Ast.Lit _ | Ast.Star -> acc

let validate_columns tables exprs =
  let refs = List.fold_left collect_cols [] exprs in
  List.iter
    (fun (q, n) ->
      let n = String.lowercase_ascii n in
      let hits =
        List.filter
          (fun (tbl, bname) ->
            (match q with Some q -> String.lowercase_ascii q = bname | None -> true)
            && List.mem n (col_names tbl))
          tables
      in
      match hits with
      | [ _ ] -> ()
      | [] -> sql_fail "no such column: %s" n
      | _ :: _ -> sql_fail "ambiguous column: %s" n)
    refs

let do_select t (s : Ast.select) =
  (* Bind FROM tables; expression-only selects get one empty binding set. *)
  let tables =
    List.map
      (fun (name, alias) ->
        let tbl = table_or_fail t name in
        let bname =
          String.lowercase_ascii (match alias with Some a -> a | None -> tbl.Catalog.tbl_name)
        in
        (tbl, bname))
      s.Ast.sel_from
  in
  validate_columns tables
    (List.filter (fun e -> e <> Ast.Star) (List.map fst s.Ast.sel_exprs)
    @ Option.to_list s.sel_where @ s.sel_group);
  let envs =
    match tables with
    | [ (tbl, bname) ] ->
      (* Single table: planner access path, predicate evaluated once. *)
      List.map (fun (_, _, env) -> env) (matching_rows t tbl ~bname s.sel_where)
    | _ ->
      (* Expression-only select ([]) or nested-loop cross product; the
         WHERE filter applies to the joined binding sets. *)
      let row_sets =
        match tables with
        | [] -> [ [] ]
        | _ ->
          List.fold_left
            (fun acc (tbl, bname) ->
              let rows = candidate_rows t tbl None in
              List.concat_map
                (fun partial ->
                  List.map
                    (fun (_, r) ->
                      partial @ [ { Expr.b_table = bname; b_cols = col_names tbl; b_row = r } ])
                    rows)
                acc)
            [ [] ] tables
      in
      List.filter_map
        (fun bindings ->
          let env = env_of t bindings in
          match s.sel_where with
          | None -> Some env
          | Some w ->
            let v = Expr.eval env w in
            if (not (Value.is_null v)) && Value.truthy v then Some env else None)
        row_sets
  in
  (* Expand * projections. *)
  let projections =
    List.concat_map
      (fun (e, alias) ->
        match e with
        | Ast.Star ->
          List.concat_map
            (fun (tbl, bname) ->
              List.map
                (fun c -> (Ast.Col (Some bname, c), Some c))
                (col_names tbl))
            tables
        | _ -> [ (e, alias) ])
      s.sel_exprs
  in
  let columns = List.mapi (fun i (e, alias) -> expr_name i e alias) projections in
  let has_aggregate = List.exists (fun (e, _) -> Expr.is_aggregate e) projections in
  let rows =
    if has_aggregate || s.sel_group <> [] then begin
      let groups =
        if s.sel_group = [] then (match envs with [] -> [ [] ] | _ -> [ envs ])
        else begin
          let tblg = Hashtbl.create 16 in
          let order = ref [] in
          List.iter
            (fun env ->
              let key =
                String.concat "\x01"
                  (List.map (fun g -> Value.key_encode (Expr.eval env g)) s.sel_group)
              in
              if not (Hashtbl.mem tblg key) then order := key :: !order;
              Hashtbl.replace tblg key (env :: Option.value ~default:[] (Hashtbl.find_opt tblg key)))
            envs;
          List.rev_map (fun k -> List.rev (Hashtbl.find tblg k)) !order |> List.rev
        end
      in
      List.map
        (fun group -> Array.of_list (List.map (fun (e, _) -> eval_aggregate t group e) projections))
        groups
    end
    else
      List.map
        (fun env -> Array.of_list (List.map (fun (e, _) -> Expr.eval env e) projections))
        envs
  in
  (* ORDER BY: sort keys computed against the projected row when the
     expression names an output column, else against the source env. *)
  let rows =
    match s.sel_order with
    | [] -> rows
    | order_items when has_aggregate || s.sel_group <> [] ->
      (* Order by output columns only in aggregate mode. *)
      let key_of row =
        List.map
          (fun (it : Ast.order_item) ->
            match it.ord_expr with
            | Ast.Col (None, name) -> begin
              match List.find_index (String.equal (String.lowercase_ascii name))
                      (List.map String.lowercase_ascii columns)
              with
              | Some i -> (row : row).(i)
              | None -> Value.Null
            end
            | _ -> Value.Null)
          order_items
      in
      let cmp a b =
        let rec go ks1 ks2 its =
          match (ks1, ks2, its) with
          | k1 :: r1, k2 :: r2, (it : Ast.order_item) :: ri ->
            let c = Value.compare_sql k1 k2 in
            if c <> 0 then if it.ord_desc then -c else c else go r1 r2 ri
          | _ -> 0
        in
        go (key_of a) (key_of b) order_items
      in
      List.stable_sort cmp rows
    | order_items ->
      let keyed =
        List.map2
          (fun env row ->
            (List.map (fun (it : Ast.order_item) -> Expr.eval env it.ord_expr) order_items, row))
          envs rows
      in
      let cmp (ka, _) (kb, _) =
        let rec go ks1 ks2 its =
          match (ks1, ks2, its) with
          | k1 :: r1, k2 :: r2, (it : Ast.order_item) :: ri ->
            let c = Value.compare_sql k1 k2 in
            if c <> 0 then if it.ord_desc then -c else c else go r1 r2 ri
          | _ -> 0
        in
        go ka kb order_items
      in
      List.map snd (List.stable_sort cmp keyed)
  in
  let rows =
    match s.sel_limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  { columns; rows; affected = 0 }

(* --- UPDATE / DELETE --- *)

let do_update t table assignments where =
  let tbl = ref (table_or_fail t table) in
  let names = col_names !tbl in
  let targets =
    List.map
      (fun (c, e) ->
        match List.find_index (String.equal (String.lowercase_ascii c)) names with
        | Some i -> (i, e)
        | None -> sql_fail "no such column: %s" c)
      assignments
  in
  (match pk_column !tbl with
  | Some pki when List.exists (fun (i, _) -> i = pki) targets ->
    sql_fail "updating the INTEGER PRIMARY KEY is not supported"
  | Some _ | None -> ());
  let bname = String.lowercase_ascii !tbl.Catalog.tbl_name in
  let matches = matching_rows t !tbl ~bname where in
  let count = ref 0 in
  List.iter
    (fun (rowid, r, env) ->
      index_delete t !tbl rowid r;
      let r' = Array.copy r in
      List.iter
        (fun (i, e) -> r'.(i) <- coerce (List.nth !tbl.Catalog.tbl_cols i) (Expr.eval env e))
        targets;
      let tree = tree_of t !tbl in
      Btree.insert tree ~key:(rowid_key rowid) ~value:(encode_row r');
      tbl := persist_tree t !tbl tree;
      tbl := index_insert t !tbl rowid r';
      incr count)
    matches;
  { columns = []; rows = []; affected = !count }

let do_delete t table where =
  let tbl = ref (table_or_fail t table) in
  let bname = String.lowercase_ascii !tbl.Catalog.tbl_name in
  let matches = matching_rows t !tbl ~bname where in
  let count = ref 0 in
  List.iter
    (fun (rowid, r, _env) ->
      let tree = tree_of t !tbl in
      ignore (Btree.delete tree (rowid_key rowid));
      tbl := persist_tree t !tbl tree;
      index_delete t !tbl rowid r;
      incr count)
    matches;
  { columns = []; rows = []; affected = !count }

(* --- top level --- *)

let run_stmt t (stmt : Ast.stmt) =
  match stmt with
  | Ast.Create_table { ct_name; ct_cols; ct_if_not_exists } ->
    do_create_table t ct_name ct_cols ct_if_not_exists
  | Ast.Drop_table { dt_name; dt_if_exists } -> do_drop_table t dt_name dt_if_exists
  | Ast.Create_index { ci_name; ci_table; ci_col; ci_if_not_exists } ->
    do_create_index t ci_name ci_table ci_col ci_if_not_exists
  | Ast.Drop_index { di_name; di_if_exists } -> do_drop_index t di_name di_if_exists
  | Ast.Insert { ins_table; ins_cols; ins_rows } -> do_insert t ins_table ins_cols ins_rows
  | Ast.Select s -> do_select t s
  | Ast.Update { upd_table; upd_set; upd_where } -> do_update t upd_table upd_set upd_where
  | Ast.Delete { del_table; del_where } -> do_delete t del_table del_where
  | Ast.Begin_txn | Ast.Commit_txn | Ast.Rollback_txn -> assert false

(* Statement cost model: parsing (or a statement-cache lookup) plus
   B-tree page traffic plus per-row evaluation, all in virtual seconds;
   disk costs accumulate in the VFS. Knobs live in {!Pbft.Costmodel} with
   the protocol constants. *)
let sql_costs = Pbft.Costmodel.sql_default

let cpu_cost ~cached ~sql_len ~pages ~rows =
  sql_costs.Pbft.Costmodel.stmt_fixed
  +. (if cached then sql_costs.Pbft.Costmodel.cache_lookup
      else sql_costs.Pbft.Costmodel.parse_per_byte *. float_of_int sql_len)
  +. (sql_costs.Pbft.Costmodel.page_io *. float_of_int pages)
  +. (sql_costs.Pbft.Costmodel.row_eval *. float_of_int rows)

(* Parse through the per-connection statement cache. Parse errors are not
   cached; the cache is wiped wholesale when it fills (it holds distinct
   statement *texts*, which real workloads keep small) and on DDL, which
   can change what a statement means. *)
let parse_cached t sql =
  match Hashtbl.find_opt t.stmt_cache sql with
  | Some stmts ->
    t.cache_hits <- t.cache_hits + 1;
    (stmts, true)
  | None ->
    let stmts = Parser.parse sql in
    t.cache_misses <- t.cache_misses + 1;
    if Hashtbl.length t.stmt_cache >= stmt_cache_capacity then Hashtbl.reset t.stmt_cache;
    Hashtbl.add t.stmt_cache sql stmts;
    (stmts, false)

let exec t sql =
  if not (Pager.in_txn t.pager) then Pager.refresh t.pager;
  ignore (Vfs.take_cost t.vfs);
  ignore (Pager.take_pages_touched t.pager);
  t.rows_scanned <- 0;
  let finish ~cached res =
    let pages = Pager.take_pages_touched t.pager in
    let disk = Vfs.take_cost t.vfs in
    let rows = t.rows_scanned in
    let cost = cpu_cost ~cached ~sql_len:(String.length sql) ~pages ~rows +. disk in
    pages_read_acc := !pages_read_acc + pages;
    rows_scanned_acc := !rows_scanned_acc + rows;
    { res; cost; pages_read = pages; rows_scanned = rows }
  in
  match parse_cached t sql with
  | exception Lexer.Error e -> finish ~cached:false (Error ("syntax error: " ^ e))
  | exception Parser.Error e -> finish ~cached:false (Error ("syntax error: " ^ e))
  | stmts, cached ->
    let run_all () =
      let last = ref { columns = []; rows = []; affected = 0 } in
      List.iter
        (fun stmt ->
          match stmt with
          | Ast.Begin_txn ->
            if t.explicit_txn then sql_fail "transaction already open";
            Pager.begin_txn t.pager;
            t.explicit_txn <- true
          | Ast.Commit_txn ->
            if not t.explicit_txn then sql_fail "no open transaction";
            Pager.commit t.pager;
            t.explicit_txn <- false
          | Ast.Rollback_txn ->
            if not t.explicit_txn then sql_fail "no open transaction";
            Pager.rollback t.pager;
            t.explicit_txn <- false
          | _ ->
            let auto = not t.explicit_txn in
            if auto then Pager.begin_txn t.pager;
            (match run_stmt t stmt with
            | r ->
              if auto then Pager.commit t.pager;
              (* DDL can change what a cached plan means. *)
              (match stmt with
              | Ast.Create_table _ | Ast.Drop_table _ | Ast.Create_index _ | Ast.Drop_index _ ->
                Hashtbl.reset t.stmt_cache
              | _ -> ());
              last := r
            | exception e ->
              if Pager.in_txn t.pager then Pager.rollback t.pager;
              t.explicit_txn <- false;
              raise e))
        stmts;
      !last
    in
    (match run_all () with
    | r -> finish ~cached (Ok r)
    | exception Sql_error e -> finish ~cached (Error e)
    | exception Expr.Eval_error e -> finish ~cached (Error e)
    | exception Invalid_argument e -> finish ~cached (Error e))

let exec_exn t sql =
  match (exec t sql).res with
  | Ok r -> r
  | Error e -> failwith ("SQL error: " ^ e)

let render (r : result) =
  let buf = Buffer.create 256 in
  if r.columns <> [] then begin
    Buffer.add_string buf (String.concat " | " r.columns);
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (String.make (Int.max 8 (String.length (String.concat " | " r.columns))) '-');
    Buffer.add_char buf '\n'
  end;
  List.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat " | " (List.map Value.to_string (Array.to_list row)));
      Buffer.add_char buf '\n')
    r.rows;
  if r.affected > 0 then Buffer.add_string buf (Printf.sprintf "(%d row(s) affected)\n" r.affected);
  Buffer.contents buf
