(* The four workloads: what each one sends, how the cluster is
   configured, and how each reply is checked. Every workload uses f = 1
   (4 replicas), the LAN profile and the Table-1 default configuration
   (MACs, all requests big, batching, pipeline depth 1, one core). *)

type service =
  | Null of { reply_bytes : int }
  | Sql of { app_pages : int; boot : quick:bool -> string list }
      (** schema, then the boot-time fill; every replica runs it in
          [Service.make] *)

type closed = {
  clients : int;
  op : Util.Rng.t -> client:int -> seq:int -> string;
      (** the [seq]-th operation of [client]; [rng] is that client's own
          seeded stream *)
  check : quick:bool -> op:string -> string -> bool;
      (** is this the correct reply to [op]? Applied to [~quick] once per
          run, so a check can precompute its answers *)
}

type gateway = {
  rate : float;  (** Poisson arrivals per virtual second *)
  quick_rate : float;  (** the same at --quick *)
  sessions : int;
  conns : int;  (** virtual connections the sessions are multiplexed over *)
  op_bytes : int;
  door : Webgate.Frontdoor.config;
  crash_at : float;  (** primary crash, as a fraction of the window *)
  restart_at : float;  (** its restart, as a fraction of the window *)
}

type kind = Closed of closed | Gateway of gateway

type t = {
  name : string;
  cfg : Pbft.Config.t;
  service : service;
  kind : kind;
  virtual_per_host_s : float;
      (** virtual seconds of window per host second on the reference
          machine (2 vCPU x86-64): [--seconds s] measures a window of
          [s *. virtual_per_host_s] virtual seconds, so every virtual
          metric depends only on the seed and [--seconds] *)
  quick_window : float;  (** virtual window at [--quick] *)
}

let warmup ~quick = if quick then 0.1 else 0.5

let make_service w ~quick =
  let s =
    match w.service with
    | Null { reply_bytes } -> Pbft.Service.null ~reply_size:reply_bytes ()
    | Sql { app_pages; boot } -> (
      match boot ~quick with
      | schema :: init -> Relsql.Pbft_service.service ~acid:true ~app_pages ~schema ~init ()
      | [] -> invalid_arg "Workloads.make_service: empty SQL boot")
  in
  match w.kind with Gateway _ -> Webgate.Frontdoor.wrap_service s | Closed _ -> s

let payload rng bytes = String.init bytes (fun _ -> Char.chr (97 + Util.Rng.int rng 26))

(* The paper's headline Table-1 row: 1024 B null operations from 12
   closed-loop clients. Only crypto, codec, engine and protocol work; no
   SQL. *)
let null_table1 =
  {
    name = "null_table1";
    cfg = Pbft.Config.default ~f:1;
    service = Null { reply_bytes = 1024 };
    kind =
      Closed
        {
          clients = 12;
          op = (fun rng ~client:_ ~seq:_ -> payload rng 1024);
          check = (fun ~quick:_ ~op:_ reply -> String.length reply = 1024);
        };
    virtual_per_host_s = 0.3;
    quick_window = 0.1;
  }

(* The lookup table: rows whose key column cycles through 256 values,
   filled at boot in 40-row INSERTs after the index exists. *)
let lookup_rows ~quick = if quick then 512 else 6400

let lookup_boot ~quick =
  let rows = lookup_rows ~quick in
  let batch = 40 in
  Relsql.Pbft_service.lookup_schema :: Relsql.Pbft_service.lookup_index_sql
  :: List.init ((rows + batch - 1) / batch) (fun b ->
         let lo = (b * batch) + 1 in
         let hi = Int.min rows (lo + batch - 1) in
         "INSERT INTO lookup (id, k, pad) VALUES "
         ^ String.concat ", "
             (List.init (hi - lo + 1) (fun j ->
                  let id = lo + j in
                  Printf.sprintf "(%d, %d, '%s')" id (id mod 256)
                    (String.make 64 (Char.chr (97 + (id mod 26)))))))

let last_line s =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* Probed keys stay below 256 and inserted rows take keys from 256 up, so
   every SELECT has one right answer whatever the interleaving: the boot
   rows with [id mod 256 = key]. *)
let read_mix_check ~quick =
  let rows = lookup_rows ~quick in
  let expected =
    Array.init 256 (fun key ->
        let ids = List.filter (fun id -> id mod 256 = key) (List.init rows (fun i -> i + 1)) in
        Printf.sprintf "%d | %d" (List.length ids) (List.fold_left ( + ) 0 ids))
  in
  fun ~op reply ->
    match Scanf.sscanf_opt op "SELECT COUNT(*), SUM(id) FROM lookup WHERE k = %d%!" Fun.id with
    | Some key -> key >= 0 && key < 256 && last_line reply = expected.(key)
    | None -> reply = "ok:1"

(* Read-mostly SQL: 95% planner-proven read-only point SELECTs on the
   fast path and 5% INSERTs over an indexed 6,400-row table. relsql and
   page reads dominate host time. *)
let sql_read_mix =
  {
    name = "sql_read_mix";
    cfg = Pbft.Config.default ~f:1;
    service = Sql { app_pages = 512; boot = lookup_boot };
    kind =
      Closed
        {
          clients = 12;
          op =
            (fun rng ~client ~seq ->
              (* Drawn, not every 20th op: a fixed schedule locks the
                 closed-loop clients' INSERTs into a seed-dependent
                 collision pattern that sets the whole tail. *)
              if Util.Rng.int rng 20 = 0 then
                Printf.sprintf "INSERT INTO lookup (id, k, pad) VALUES (%d, %d, 'w')"
                  (1_000_000 + (client * 100_000) + seq)
                  (256 + Util.Rng.int rng 256)
              else Relsql.Pbft_service.point_select_sql ~key:(Util.Rng.int rng 256));
          check = read_mix_check;
        };
    virtual_per_host_s = 0.5;
    quick_window = 0.3;
  }

(* Bulky filler rows, so the allocated pages are about 16x what the
   INSERT stream dirties per checkpoint interval. *)
let vote_boot ~quick =
  let rows = if quick then 160 else 1600 in
  let batch = 40 in
  Relsql.Pbft_service.vote_schema
  :: "CREATE TABLE IF NOT EXISTS fill (id INTEGER PRIMARY KEY, pad TEXT)"
  :: List.init (rows / batch) (fun b ->
         "INSERT INTO fill (id, pad) VALUES "
         ^ String.concat ", "
             (List.init batch (fun j ->
                  let id = (b * batch) + j + 1 in
                  Printf.sprintf "(%d, '%s')" id (String.make 1500 (Char.chr (97 + (id mod 26)))))))

(* The paper's Figure-5 operation: a vote INSERT with NOW(), RANDOM(),
   an ACID journal and fsync, over a pre-filled database. The write
   direction of the SQL path. *)
let sql_vote_insert =
  {
    name = "sql_vote_insert";
    cfg = Pbft.Config.default ~f:1;
    service = Sql { app_pages = 2048; boot = vote_boot };
    kind =
      Closed
        {
          clients = 12;
          op =
            (fun rng ~client ~seq ->
              Relsql.Pbft_service.insert_vote_sql
                ~voter:(Printf.sprintf "voter-%d-%d" client seq)
                ~choice:(if Util.Rng.bool rng then "alice" else "bob"));
          check = (fun ~quick:_ ~op:_ reply -> reply = "ok:1");
        };
    virtual_per_host_s = 0.9;
    quick_window = 0.4;
  }

(* Open-loop Poisson arrivals through the gateway front door while the
   primary crashes and later rejoins: the only workload with a view
   change and a Merkle-diff rejoin. *)
let gateway_failover =
  {
    name = "gateway_failover";
    cfg =
      {
        (Pbft.Config.default ~f:1) with
        rejoin_key_refresh = true;
      };
    service = Null { reply_bytes = 256 };
    kind =
      Gateway
        {
          rate = 8000.0;
          quick_rate = 1000.0;
          sessions = 10_000;
          conns = 64;
          op_bytes = 256;
          door =
            {
              Webgate.Frontdoor.connections = 16;
              flush_bytes = 8 * 1024;
              flush_deadline = 0.005;
              (* Large enough that nothing is shed during the outage:
                 every arrival is queued and served after the view
                 change, so no operation fails. *)
              max_queue = 1 lsl 20;
              max_sessions = 10_000;
            };
          crash_at = 0.2;
          restart_at = 0.7;
        };
    virtual_per_host_s = 1.8;
    (* The 5 s view-change watchdog must fire inside the window. *)
    quick_window = 14.0;
  }

let all = [ null_table1; sql_read_mix; sql_vote_insert; gateway_failover ]
let find name = List.find_opt (fun w -> w.name = name) all
