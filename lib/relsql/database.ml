type t = {
  vfs : Vfs.t;
  pager : Pager.t;
  cat : Catalog.t;
  ctx : Expr.ctx;
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
    ctx = { Expr.time = vfs.Vfs.time; random = vfs.Vfs.random };
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

(* The byte order of [rowid_key]: numeric order, except that negative
   rowids sort after positive ones (the key is a raw big-endian int64). *)
let rowid_order a b =
  if Bool.equal (a < 0) (b < 0) then Int.compare a b else if a < 0 then 1 else -1

let encode_row (r : row) =
  Util.Codec.encode (fun w l -> Util.Codec.W.list w Value.encode l) (Array.to_list r)

(* Decode the columns [need] marks into [row], stepping over the others
   without building them. *)
let decode_into need s (row : row) =
  let r = Util.Codec.R.of_string s in
  if Util.Codec.R.varint r <> Array.length row then raise (Pager.Corrupt "row width");
  for i = 0 to Array.length row - 1 do
    if need.(i) then row.(i) <- Value.decode r else Value.skip r
  done

(* An index entry's key: the encoded value, a NUL, the 8-byte rowid key. *)
let index_key v rowid = Value.key_encode v ^ "\x00" ^ rowid_key rowid
let entry_rowid k = Int64.to_int (String.get_int64_be k (String.length k - 8))
let entry_value k = Value.key_decode (String.sub k 0 (String.length k - 9))

(* --- helpers --- *)

(* Column positions in a flat row made of each FROM table's columns in
   turn; [layout] gives each table's column names, binding name and first
   position. A qualifier picks the table; a name must match exactly one
   column of the tables it may name. *)
let resolver layout q name =
  let name = String.lowercase_ascii name in
  let q = Option.map String.lowercase_ascii q in
  let hits =
    List.filter_map
      (fun (cols, bname, first) ->
        match q with
        | Some q when not (String.equal q bname) -> None
        | Some _ | None -> Option.map (( + ) first) (List.find_index (String.equal name) cols))
      layout
  in
  match hits with
  | [ i ] -> Ok i
  | [] -> Error ("no such column: " ^ name)
  | _ :: _ -> Error ("ambiguous column: " ^ name)

let no_columns _ name = Error ("no such column: " ^ String.lowercase_ascii name)
let const_eval t e = Expr.eval (Expr.compile t.ctx no_columns e) [||]

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

let plan t tbl where = if t.planner_enabled then Plan.choose tbl where else Plan.Full_scan

let passes where row =
  match where with
  | None -> true
  | Some w ->
    let v = Expr.eval w row in
    (not (Value.is_null v)) && Value.truthy v

let rec ascending cmp = function
  | a :: (b :: _ as rest) -> cmp a b < 0 && ascending cmp rest
  | _ -> true

(* [List.sort_uniq], skipping the sort when a point probe's entries are
   already in order. *)
let sorted cmp l = if ascending cmp l then l else List.sort_uniq cmp l

(* Run [f rowid row] on every row of [tbl] that [access] yields and
   [where] accepts, in rowid-key byte order — the order of a full scan,
   so the result does not depend on the path the planner picked. [row]
   is one buffer refilled per row with the columns [need] marks (the
   others stay Null): [f] copies what it keeps and must not write the
   pager. With [cover], an index scan whose needed columns all lie in
   the index key (the indexed column and the INTEGER PRIMARY KEY) reads
   no row at all. Each candidate counts one [rows_scanned], whichever
   path produced it. *)
let iter_rows (t : t) (tbl : Catalog.table) access ~need ~where ~cover f =
  let row = Array.make (Array.length need) Value.Null in
  let visit rowid =
    t.rows_scanned <- t.rows_scanned + 1;
    if passes where row then f rowid row
  in
  let fetch rowid = function
    | Some v ->
      decode_into need v row;
      visit rowid
    | None -> t.rows_scanned <- t.rows_scanned + 1
  in
  match access with
  | Plan.No_rows -> ()
  | Plan.Full_scan ->
    Btree.iter (tree_of t tbl) (fun k v ->
        fetch (rowid_of_key k) (Some v);
        true)
  | Plan.Pk_probe rowid -> fetch rowid (Btree.find (tree_of t tbl) (rowid_key rowid))
  | Plan.Index_scan { idx; lo; hi } ->
    let entries = ref [] in
    Btree.iter (Btree.open_tree t.pager ~root:idx.Catalog.idx_root) ?from:lo ?upto:hi (fun k _ ->
        entries := k :: !entries;
        true);
    (* The needed positions of the indexed column and the primary key,
       -1 where not needed. *)
    let needed = function Some i when need.(i) -> i | Some _ | None -> -1 in
    let ci =
      needed (List.find_index (String.equal (String.lowercase_ascii idx.idx_col)) (col_names tbl))
    in
    let pk = needed (pk_column tbl) in
    let covered = ref cover in
    Array.iteri (fun i n -> if n && i <> ci && i <> pk then covered := false) need;
    if !covered then
      List.iter
        (fun k ->
          let rowid = entry_rowid k in
          if ci >= 0 then row.(ci) <- entry_value k;
          if pk >= 0 then row.(pk) <- Value.Int rowid;
          visit rowid)
        (sorted (fun a b -> rowid_order (entry_rowid a) (entry_rowid b)) (List.rev !entries))
    else begin
      (* One batched lookup walks each row-tree node once. *)
      let keys =
        sorted String.compare
          (List.rev_map (fun k -> String.sub k (String.length k - 8) 8) !entries)
      in
      Btree.find_many (tree_of t tbl) keys (fun rk rv -> fetch (rowid_of_key rk) rv)
    end

(* Full rows (copies) of [tbl] under [where], for statements that rewrite
   them. *)
let matching_rows t (tbl : Catalog.table) ast_where where =
  let out = ref [] in
  iter_rows t tbl (plan t tbl ast_where)
    ~need:(Array.make (List.length tbl.tbl_cols) true)
    ~where ~cover:false
    (fun rowid row -> out := (rowid, Array.copy row) :: !out);
  List.rev !out

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
  let need = Array.init (List.length cols) (Int.equal ci) in
  iter_rows t tbl Plan.Full_scan ~need ~where:None ~cover:false (fun rowid r ->
      entries := (index_key r.(ci) rowid, "") :: !entries);
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
          r.(pos) <- coerce cdef (const_eval t e))
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

(* One group's running value of an aggregating projection. *)
type acc = { step : row -> unit; result : unit -> Value.t }

type sum = { mutable total : float }

(* Compile an aggregate-containing projection once; the returned function
   makes a fresh accumulator per group. COUNT/SUM/AVG/MIN/MAX fold the
   group's rows as they stream past: SUM adds the numeric values as
   floats in row order and is an Int only when every non-NULL value is,
   MIN/MAX keep the first of equal extremes, and a non-aggregate part
   takes the group's first row (SQL's bare-column semantics; NULL for an
   empty group). Operators over aggregates combine the finished values. *)
let rec aggregate t compile (e : Ast.expr) : unit -> acc =
  match e with
  | Ast.Call ("COUNT", [ arg ]) ->
    let counts =
      match arg with
      | Ast.Star -> fun _ -> true
      | arg ->
        let arg = compile arg in
        fun row -> not (Value.is_null (Expr.eval arg row))
    in
    fun () ->
      let n = ref 0 in
      { step = (fun row -> if counts row then incr n); result = (fun () -> Value.Int !n) }
  | Ast.Call (("MIN" | "MAX") as f, [ arg ]) ->
    let arg = compile arg in
    let better = if String.equal f "MIN" then fun c -> c < 0 else fun c -> c > 0 in
    fun () ->
      let best = ref Value.Null in
      {
        step =
          (fun row ->
            let v = Expr.eval arg row in
            if (not (Value.is_null v)) && (Value.is_null !best || better (Value.compare_sql v !best))
            then best := v);
        result = (fun () -> !best);
      }
  | Ast.Call (("SUM" | "AVG") as f, [ arg ]) ->
    let arg = compile arg in
    fun () ->
      let s = { total = 0.0 } and nums = ref 0 and seen = ref false and all_int = ref true in
      {
        step =
          (fun row ->
            (* Each float is added in place, never boxed. *)
            match Expr.eval arg row with
            | Value.Null -> ()
            | Value.Int i ->
              seen := true;
              s.total <- s.total +. float_of_int i;
              incr nums
            | Value.Real x ->
              seen := true;
              all_int := false;
              s.total <- s.total +. x;
              incr nums
            | Value.Text str -> (
              seen := true;
              all_int := false;
              match float_of_string_opt str with
              | Some x ->
                s.total <- s.total +. x;
                incr nums
              | None -> ()));
        result =
          (fun () ->
            if not !seen then Value.Null
            else if String.equal f "AVG" then Value.Real (s.total /. float_of_int !nums)
            else if !all_int then Value.Int (int_of_float s.total)
            else Value.Real s.total);
      }
  | Ast.Binop (op, a, b) ->
    let a = aggregate t compile a and b = aggregate t compile b in
    fun () ->
      let a = a () and b = b () in
      {
        step =
          (fun row ->
            a.step row;
            b.step row);
        result =
          (fun () ->
            let va = a.result () and vb = b.result () in
            const_eval t (Ast.Binop (op, Ast.Lit va, Ast.Lit vb)));
      }
  | Ast.Unop (op, a) ->
    let a = aggregate t compile a in
    fun () ->
      let a = a () in
      { step = a.step; result = (fun () -> const_eval t (Ast.Unop (op, Ast.Lit (a.result ())))) }
  | other ->
    let e = compile other in
    fun () ->
      let first = ref None in
      {
        step = (fun row -> if Option.is_none !first then first := Some (Expr.eval e row));
        result = (fun () -> Option.value !first ~default:Value.Null);
      }

let rec collect_cols acc (e : Ast.expr) =
  match e with
  | Ast.Col (q, n) -> (q, n) :: acc
  | Ast.Binop (_, a, b) | Ast.Like (a, b) -> collect_cols (collect_cols acc a) b
  | Ast.Unop (_, a) | Ast.Is_null (a, _) -> collect_cols acc a
  | Ast.Call (_, args) -> List.fold_left collect_cols acc args
  | Ast.Lit _ | Ast.Star -> acc

let compare_keys items ka kb =
  let rec go ks1 ks2 its =
    match (ks1, ks2, its) with
    | k1 :: r1, k2 :: r2, (it : Ast.order_item) :: ri ->
      let c = Value.compare_sql k1 k2 in
      if c <> 0 then if it.ord_desc then -c else c else go r1 r2 ri
    | _ -> 0
  in
  go ka kb items

let do_select t (s : Ast.select) =
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
  (* Each FROM table's columns take the next run of the flat row. *)
  let layout, width =
    List.fold_left
      (fun (acc, first) ((tbl : Catalog.table), bname) ->
        ((col_names tbl, bname, first) :: acc, first + List.length tbl.tbl_cols))
      ([], 0) tables
  in
  let resolve = resolver (List.rev layout) in
  (* Every column reference must resolve (uniquely) against the FROM
     tables — SQLite reports these at prepare time, and so do we, even
     when a table is empty. *)
  List.iter
    (fun (q, n) -> match resolve q n with Ok _ -> () | Error e -> raise (Sql_error e))
    (List.fold_left collect_cols []
       (List.filter (fun e -> e <> Ast.Star) (List.map fst s.Ast.sel_exprs)
       @ Option.to_list s.sel_where @ s.sel_group));
  let projections =
    List.concat_map
      (fun (e, alias) ->
        match e with
        | Ast.Star ->
          List.concat_map
            (fun (tbl, bname) ->
              List.map (fun c -> (Ast.Col (Some bname, c), Some c)) (col_names tbl))
            tables
        | _ -> [ (e, alias) ])
      s.sel_exprs
  in
  let columns = List.mapi (fun i (e, alias) -> expr_name i e alias) projections in
  let aggregating =
    List.exists (fun (e, _) -> Expr.is_aggregate e) projections || s.sel_group <> []
  in
  let compile = Expr.compile t.ctx resolve in
  let where = Option.map compile s.sel_where in
  (* Only the columns the statement reads are decoded. In aggregate mode
     ORDER BY names output columns, not source ones. *)
  let need = Array.make width false in
  List.iter
    (fun (q, n) -> match resolve q n with Ok i -> need.(i) <- true | Error _ -> ())
    (List.fold_left collect_cols []
       (List.map fst projections @ Option.to_list s.sel_where @ s.sel_group
       @ if aggregating then [] else List.map (fun (it : Ast.order_item) -> it.ord_expr) s.sel_order
       ));
  let each f =
    match tables with
    | [ (tbl, _) ] ->
      (* Single table: planner access path, WHERE evaluated once per row. *)
      iter_rows t tbl (plan t tbl s.sel_where) ~need ~where ~cover:true (fun _ row -> f row)
    | _ ->
      (* Expression-only select ([]) or nested-loop cross product of full
         rows; the WHERE filter applies to the joined rows. *)
      List.iter
        (fun row -> if passes where row then f row)
        (List.fold_left
           (fun acc ((tbl : Catalog.table), _) ->
             let rows = List.map snd (matching_rows t tbl None None) in
             List.concat_map (fun prefix -> List.map (Array.append prefix) rows) acc)
           [ [||] ] tables)
  in
  let rows =
    if aggregating then begin
      let accs = List.map (fun (e, _) -> aggregate t compile e) projections in
      let fresh () = List.map (fun acc -> acc ()) accs in
      let rec step group row =
        match group with
        | [] -> ()
        | a :: rest ->
          a.step row;
          step rest row
      in
      let groups =
        match s.sel_group with
        | [] ->
          let group = fresh () in
          each (step group);
          [ group ]
        | keys ->
          let keys = List.map compile keys in
          let by_key = Hashtbl.create 16 and order = ref [] in
          each (fun row ->
              let key =
                String.concat "\x01" (List.map (fun g -> Value.key_encode (Expr.eval g row)) keys)
              in
              let group =
                match Hashtbl.find_opt by_key key with
                | Some group -> group
                | None ->
                  let group = fresh () in
                  Hashtbl.add by_key key group;
                  order := group :: !order;
                  group
              in
              step group row);
          (* Groups come out last-seen first. *)
          !order
      in
      List.map (fun group -> Array.of_list (List.map (fun a -> a.result ()) group)) groups
    end
    else begin
      let exprs = Array.of_list (List.map (fun (e, _) -> compile e) projections) in
      let keys = List.map (fun (it : Ast.order_item) -> compile it.ord_expr) s.sel_order in
      let out = ref [] in
      each (fun row ->
          let projected = Array.map (fun e -> Expr.eval e row) exprs in
          out := (List.map (fun k -> Expr.eval k row) keys, projected) :: !out);
      let keyed = List.rev !out in
      let keyed =
        match s.sel_order with
        | [] -> keyed
        | items -> List.stable_sort (fun (a, _) (b, _) -> compare_keys items a b) keyed
      in
      List.map snd keyed
    end
  in
  (* ORDER BY in aggregate mode sorts by output columns only. *)
  let rows =
    match s.sel_order with
    | order_items when aggregating && order_items <> [] ->
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
      List.stable_sort (fun a b -> compare_keys order_items (key_of a) (key_of b)) rows
    | _ -> rows
  in
  let rows =
    match s.sel_limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  { columns; rows; affected = 0 }

(* --- UPDATE / DELETE --- *)

let single_table_compile t (tbl : Catalog.table) =
  Expr.compile t.ctx (resolver [ (col_names tbl, String.lowercase_ascii tbl.tbl_name, 0) ])

let do_update t table assignments where =
  let tbl = ref (table_or_fail t table) in
  let names = col_names !tbl in
  let compile = single_table_compile t !tbl in
  let targets =
    List.map
      (fun (c, e) ->
        match List.find_index (String.equal (String.lowercase_ascii c)) names with
        | Some i -> (i, compile e)
        | None -> sql_fail "no such column: %s" c)
      assignments
  in
  (match pk_column !tbl with
  | Some pki when List.exists (fun (i, _) -> i = pki) targets ->
    sql_fail "updating the INTEGER PRIMARY KEY is not supported"
  | Some _ | None -> ());
  let matches = matching_rows t !tbl where (Option.map compile where) in
  let count = ref 0 in
  List.iter
    (fun (rowid, r) ->
      index_delete t !tbl rowid r;
      let r' = Array.copy r in
      List.iter
        (fun (i, e) -> r'.(i) <- coerce (List.nth !tbl.Catalog.tbl_cols i) (Expr.eval e r))
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
  let matches = matching_rows t !tbl where (Option.map (single_table_compile t !tbl) where) in
  let count = ref 0 in
  List.iter
    (fun (rowid, r) ->
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

(* Planner-proven read-only classification: a statement batch may ride
   the PBFT read-only fast path iff every statement is a SELECT and no
   expression calls a non-deterministic function. NOW()/RANDOM() must be
   excluded even inside SELECTs — on the fast path each replica evaluates
   against its *local* clock and an empty nondet seed, so their results
   would diverge and the client could never collect matching replies. *)
let rec expr_deterministic (e : Ast.expr) =
  match e with
  | Ast.Lit _ | Ast.Col _ | Ast.Star -> true
  | Ast.Binop (_, a, b) | Ast.Like (a, b) -> expr_deterministic a && expr_deterministic b
  | Ast.Unop (_, a) | Ast.Is_null (a, _) -> expr_deterministic a
  | Ast.Call (fn, args) ->
    (match String.uppercase_ascii fn with "RANDOM" | "NOW" -> false | _ -> true)
    && List.for_all expr_deterministic args

let select_deterministic (s : Ast.select) =
  List.for_all (fun (e, _) -> expr_deterministic e) s.Ast.sel_exprs
  && (match s.Ast.sel_where with None -> true | Some e -> expr_deterministic e)
  && List.for_all expr_deterministic s.Ast.sel_group
  && List.for_all (fun (o : Ast.order_item) -> expr_deterministic o.Ast.ord_expr) s.Ast.sel_order

let readonly_batch = function
  | [] -> false
  | stmts -> List.for_all (function Ast.Select s -> select_deterministic s | _ -> false) stmts

let is_readonly_sql sql =
  match Parser.parse sql with
  | stmts -> readonly_batch stmts
  | exception (Parser.Error _ | Lexer.Error _) ->
    (* Unparseable text will produce an error reply either way; ordering
       it keeps the error deterministic and identical across replicas. *)
    false

let exec ?(readonly = false) t sql =
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
  | stmts, cached when readonly && not (readonly_batch stmts) ->
    (* Nothing runs: an unordered write would diverge the replicas. *)
    finish ~cached (Error "a read-only request must be a deterministic SELECT")
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
