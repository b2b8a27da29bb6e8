let vote_schema =
  "CREATE TABLE IF NOT EXISTS votes (id INTEGER PRIMARY KEY, voter TEXT, choice TEXT, ts REAL, \
   nonce INTEGER)"

let insert_vote_sql ~voter ~choice =
  Printf.sprintf "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('%s', '%s', NOW(), RANDOM())"
    voter choice

(* Read-mostly lookup workload for the access-path benchmarks: a table of
   keyed rows, optionally covered by a secondary index, probed with point
   and small-range SELECTs. *)

let lookup_schema = "CREATE TABLE IF NOT EXISTS lookup (id INTEGER PRIMARY KEY, k INTEGER, pad TEXT)"
let lookup_index_sql = "CREATE INDEX IF NOT EXISTS lookup_k ON lookup(k)"

let point_select_sql ~key = Printf.sprintf "SELECT COUNT(*), SUM(id) FROM lookup WHERE k = %d" key

let range_select_sql ~lo ~hi =
  Printf.sprintf "SELECT COUNT(*) FROM lookup WHERE k >= %d AND k < %d" lo hi

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

let is_readonly_sql sql =
  match Parser.parse sql with
  | [] -> false
  | stmts ->
    List.for_all
      (function Ast.Select s -> select_deterministic s | _ -> false)
      stmts
  | exception (Parser.Error _ | Lexer.Error _) ->
    (* Unparseable text will produce an error reply either way; ordering
       it keeps the error deterministic and identical across replicas. *)
    false

(* A VFS whose main file is a window onto the replica's PBFT state region:
   reads go straight to the pages (page views borrow the live buffer
   without copying), writes notify the state manager first (the §3.2
   contract), and the commit-time sync is charged as disk cost (the paper
   keeps the db file synchronized with its disk image). *)
let pages_file pages ~first_page ~app_pages ~(disk : Simdisk.Disk.t) ~cost =
  let page_size = Statemgr.Pages.page_size pages in
  let base = first_page * page_size in
  let capacity = app_pages * page_size in
  let read ~pos ~len =
    if pos + len > capacity then invalid_arg "pbft vfs: read past region";
    Statemgr.Pages.read pages ~pos:(base + pos) ~len
  in
  {
    Vfs.read;
    view =
      (fun ~pos ~len ->
        (* A whole aligned page is lent in place; anything else copies. *)
        if len = page_size && pos >= 0 && pos mod page_size = 0 && pos + len <= capacity then
          Statemgr.Pages.page_view pages (first_page + (pos / page_size))
        else read ~pos ~len);
    write =
      (fun ~pos s ->
        if pos + String.length s > capacity then invalid_arg "pbft vfs: write past region";
        Statemgr.Pages.notify_modify pages ~pos:(base + pos) ~len:(String.length s);
        Statemgr.Pages.write pages ~pos:(base + pos) s);
    sync = (fun () -> cost := !cost +. Simdisk.Disk.sync_cost disk);
    size = (fun () -> capacity);
    truncate = (fun _ -> ());
  }

(* What the first [make] of a service value leaves for every later one:
   the filled database pages (aliased, not copied), the journal file and
   the statement cache. A later [make] that adopts all three is
   indistinguishable from one that ran the fill itself — same bytes, same
   Merkle root, and, because the cache decides whether a statement is
   priced as parsed or cached, the same virtual cost for every later
   statement. *)
type genesis = { image : Statemgr.Pages.t; journal : string option; stmts : Database.stmt_cache }

(* Virtual cost of one fsync: a 2011 SATA disk with its write cache on. *)
let sync_latency = 0.4e-3

let service_with_db ?(acid = true) ?(app_pages = 128) ?(schema = vote_schema) ?(init = []) () =
  let genesis = ref None in
  let make pages ~first_page =
    let disk = Simdisk.Disk.create ~sync_latency () in
    let journal_file = if acid then Some (Simdisk.Disk.open_file disk "journal") else None in
    let cost = ref 0.0 in
    (* The agreed non-deterministic values for the current request. *)
    let env_time = ref 0.0 in
    let env_random = ref 0L in
    let vfs =
      {
        Vfs.main = pages_file pages ~first_page ~app_pages ~disk ~cost;
        journal = Option.map (fun f -> Vfs.disk_file disk f ~cost) journal_file;
        time = (fun () -> !env_time);
        random =
          (fun () ->
            (* Stream distinct values within one request determin-
               istically from the agreed seed. *)
            env_random := Int64.add (Int64.mul !env_random 6364136223846793005L) 1442695040888963407L;
            !env_random);
        cost;
      }
    in
    let db =
      match !genesis with
      | Some g ->
        Statemgr.Pages.alias_pages pages ~first:first_page ~src:g.image ~src_first:0
          ~count:app_pages;
        (match (journal_file, g.journal) with
        | Some f, Some image ->
          Simdisk.Disk.write f ~pos:0 image;
          Simdisk.Disk.sync f
        | _ -> ());
        let db = Database.open_db vfs in
        Database.adopt_stmt_cache db g.stmts;
        db
      | None ->
        let db = Database.open_db vfs in
        (match (Database.exec db schema).res with
        | Ok _ -> ()
        | Error e -> failwith ("sql service schema: " ^ e));
        (* Deterministic pre-population, identical on every replica; runs
           once per service value, at the first boot, and lands in every
           replica's genesis checkpoint. *)
        List.iter
          (fun sql ->
            match (Database.exec db sql).res with
            | Ok _ -> ()
            | Error e -> failwith ("sql service init: " ^ e))
          init;
        let image =
          Statemgr.Pages.create ~page_size:Pager.page_size ~num_pages:app_pages ()
        in
        Statemgr.Pages.alias_pages image ~first:0 ~src:pages ~src_first:first_page
          ~count:app_pages;
        let journal =
          Option.map (fun f -> Simdisk.Disk.read f ~pos:0 ~len:(Simdisk.Disk.size f)) journal_file
        in
        genesis := Some { image; journal; stmts = Database.stmt_cache db };
        db
    in
    let instance =
      {
        Pbft.Service.execute =
          (fun ~op ~client:_ ~timestamp ~nondet ~readonly:_ ->
            env_time := timestamp;
            (match Pbft.Nondet.random_value nondet with
            | Some r -> env_random := r
            | None -> env_random := Int64.of_float (timestamp *. 1e6));
            let outcome = Database.exec db op in
            let reply =
              match outcome.Database.res with
              | Ok r ->
                if r.Database.rows = [] && r.columns = [] then Printf.sprintf "ok:%d" r.affected
                else Database.render r
              | Error e -> "error: " ^ e
            in
            (reply, outcome.Database.cost));
        authorize_join =
          (fun ~idbuf ->
            match String.index_opt idbuf ':' with
            | Some i when i > 0 -> Some (String.sub idbuf 0 i)
            | Some _ | None -> None);
        on_session_end = (fun _ -> ());
      }
    in
    (db, instance)
  in
  ( {
      Pbft.Service.name = (if acid then "sql" else "sql-noacid");
      page_size = Pager.page_size;
      app_pages;
      make = (fun pages ~first_page -> snd (make pages ~first_page));
      classify_readonly = is_readonly_sql;
    },
    make )

let service ?acid ?app_pages ?schema ?init () =
  fst (service_with_db ?acid ?app_pages ?schema ?init ())
