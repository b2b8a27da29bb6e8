let null_op = String.make 1024 'q'
let null_load ?clients ?think () =
  Run.clients ?clients ?think (fun ~client:_ ~seq:_ -> String.make 1024 'q')

let base_cfg () = Pbft.Config.default ~f:1

(* A replica counter of a run, summed over every incarnation of one
   replica id. *)
let counted o ~node name = Util.Metrics.get o.Run.metrics ~node ~layer:"pbft" name

(* Client retransmissions over a single-group run. *)
let retransmissions o =
  Array.fold_left (fun acc cl -> acc + Pbft.Client.retransmissions cl) 0
    (Pbft.Cluster.clients (Run.cluster o.Run.deployment 0))

let with_flags ~dynamic ~macs ~allbig ~batching cfg =
  {
    cfg with
    Pbft.Config.dynamic_clients = dynamic;
    use_macs = macs;
    big_request_threshold = (if allbig then 0 else 8192);
    batching;
  }

(* The ten rows of Table 1 with the paper's TPS numbers. *)
let table1_rows =
  [
    ("sta_mac_allbig_batch", 17014.0, (false, true, true, true));
    ("sta_mac_allbig_nobatch", 1051.0, (false, true, true, false));
    ("sta_mac_noallbig_batch", 3030.0, (false, true, false, true));
    ("sta_mac_noallbig_nobatch", 1109.0, (false, true, false, false));
    ("sta_nomac_allbig_batch", 1291.0, (false, false, true, true));
    ("sta_nomac_allbig_nobatch", 1199.0, (false, false, true, false));
    ("sta_nomac_noallbig_batch", 992.0, (false, false, false, true));
    ("sta_nomac_noallbig_nobatch", 1186.0, (false, false, false, false));
    ("nosta_nomac_noallbig_batch", 988.0, (true, false, false, true));
    ("nosta_nomac_noallbig_nobatch", 1205.0, (true, false, false, false));
  ]

let null_tps ~seed ~duration cfg =
  Run.e2e (Run.run { (Run.closed cfg) with Run.seed; duration }) "virtual_tps"

let table1 ?(seed = 1) ?(duration = 2.0) () =
  let rows =
    List.map
      (fun (name, paper, (dynamic, macs, allbig, batching)) ->
        let cfg = with_flags ~dynamic ~macs ~allbig ~batching (base_cfg ()) in
        Report.row ~paper name (null_tps ~seed ~duration cfg))
      table1_rows
  in
  {
    Report.title =
      "Table 1 / Figure 4 — null-operation throughput per library configuration (1024 B)";
    rows;
    commentary =
      [
        "12 clients / 4 replicas; request and response bodies of 1024 bytes.";
        "Shape targets: the default configuration (MACs + all-big + batching) is";
        "roughly an order of magnitude above every other configuration; with";
        "signatures, batching stops mattering; dynamic client management costs";
        "well under 1%. See EXPERIMENTS.md for the per-row discussion.";
      ];
  }

(* Figure 5: SQL inserts, batching on, ACID. The paper plots these; the
   text pins only two values (the best configuration, and the most robust
   + dynamic one at 43% / 534 TPS). *)
let figure5_rows =
  [
    ("sta_mac_allbig", None, (false, true, true));
    ("sta_mac_noallbig", Some 1242.0, (false, true, false));
    ("sta_nomac_allbig", None, (false, false, true));
    ("sta_nomac_noallbig", None, (false, false, false));
    ("nosta_nomac_noallbig", Some 534.0, (true, false, false));
  ]

let insert_vote ~client ~seq =
  Relsql.Pbft_service.insert_vote_sql
    ~voter:(Printf.sprintf "voter-%d-%d" client seq)
    ~choice:(if (client + seq) mod 2 = 0 then "alice" else "bob")

let sql_spec ?(seed = 1) ?(duration = 2.0) ~acid cfg =
  {
    (Run.closed cfg) with
    Run.seed;
    duration;
    groups = Run.Service (Relsql.Pbft_service.service ~acid ());
    load = Run.clients insert_vote;
  }

(* INSERTs of [rows] rows numbered from 1, 40 to a statement. *)
let batched_inserts ~into ~rows row =
  List.init ((rows + 39) / 40) (fun b ->
      let first = b * 40 in
      into ^ String.concat ", " (List.init (Int.min 40 (rows - first)) (fun j -> row (first + j + 1))))

let pad ~bytes id = String.make bytes (Char.chr (Char.code 'a' + (id mod 26)))

(* Large-state checkpoint workload: the database is pre-populated with
   bulky filler rows so the allocated page count is roughly 16x the pages
   an INSERT workload dirties per checkpoint interval. A deep-copy
   checkpointer pays for every allocated page at each snapshot; the
   copy-on-write one pays only for the working set. *)

let large_state_fill_sql ?(rows = 1600) ?(row_bytes = 1500) () =
  "CREATE TABLE IF NOT EXISTS fill (id INTEGER PRIMARY KEY, pad TEXT)"
  :: batched_inserts ~into:"INSERT INTO fill (id, pad) VALUES " ~rows (fun id ->
         Printf.sprintf "(%d, '%s')" id (pad ~bytes:row_bytes id))

let sql_large_state_spec ?(seed = 1) ?(duration = 2.0) ?(app_pages = 2048) cfg =
  {
    (Run.closed cfg) with
    Run.seed;
    duration;
    groups =
      Run.Service
        (Relsql.Pbft_service.service ~acid:true ~app_pages ~init:(large_state_fill_sql ()) ());
    load = Run.clients insert_vote;
  }

(* Read-mostly lookup workload for the access-path comparison: 6400 rows
   (4x the large-state scale) whose key column cycles through 256 distinct
   values, so an equality probe selects 25 rows out of 6400. The indexed
   and forced-scan variants run the *identical* operation stream; the only
   difference is whether the init creates the secondary index. The row
   count is chosen so a full scan clearly dominates an operation's cost
   (milliseconds against the consensus round's ~1.5 ms) while an indexed
   probe stays far below it. *)

let lookup_fill_sql ?(rows = 6400) ?(row_bytes = 64) () =
  batched_inserts ~into:"INSERT INTO lookup (id, k, pad) VALUES " ~rows (fun id ->
      Printf.sprintf "(%d, %d, '%s')" id (id mod 256) (pad ~bytes:row_bytes id))

let indexed_sql_spec ?(seed = 1) ?(duration = 2.0) ?(app_pages = 512) ~indexed ~range cfg =
  let init =
    (* Index first, so the boot-time fill exercises per-INSERT index
       maintenance rather than the backfill path. *)
    (if indexed then [ Relsql.Pbft_service.lookup_index_sql ] else []) @ lookup_fill_sql ()
  in
  {
    (Run.closed cfg) with
    Run.seed;
    duration;
    groups =
      Run.Service
        (Relsql.Pbft_service.service ~acid:true ~app_pages
           ~schema:Relsql.Pbft_service.lookup_schema ~init ());
    load =
      Run.clients (fun ~client ~seq ->
          if range then begin
            let lo = seq * 13 mod 240 in
            Relsql.Pbft_service.range_select_sql ~lo ~hi:(lo + 8)
          end
          else Relsql.Pbft_service.point_select_sql ~key:(((seq * 31) + (client * 7)) mod 256));
  }

(* Pipelined speculation (PR 6): the Table-1 default configuration with
   the agreement pipeline and the multi-core CPU model opened up. The
   serial baseline (depth 1, one core) is bit-identical to the historical
   replica; deepening the pipeline overlaps consecutive batches across
   the three phases and speculative execution, and extra cores let the
   per-message MAC fan-out and per-batch digests overlap. *)

let pipeline_cfg ~depth ~cores () =
  {
    (base_cfg ()) with
    Pbft.Config.pipeline_depth = depth;
    cores;
  }

let pipeline_spec ?(seed = 1) ?(duration = 1.5) ?(num_clients = 64) cfg =
  {
    (Run.closed cfg) with
    Run.seed;
    duration;
    load = null_load ~clients:num_clients ();
  }

let pipeline_sweep ?(seed = 1) ?(duration = 1.5) () =
  let rows =
    List.concat_map
      (fun depth ->
        List.map
          (fun cores ->
            let o = Run.run (pipeline_spec ~seed ~duration (pipeline_cfg ~depth ~cores ())) in
            Report.row
              ~note:
                (Printf.sprintf "%d spec execs, %d rollbacks"
                   (Util.Metrics.total o.Run.metrics ~layer:"pbft" "speculative_executions")
                   (Util.Metrics.total o.Run.metrics ~layer:"pbft" "rollbacks"))
              (Printf.sprintf "depth=%d cores=%d" depth cores)
              (Run.e2e o "virtual_tps"))
          [ 1; 2; 4 ])
      [ 1; 2; 4; 8 ]
  in
  {
    Report.title = "Pipelining — vTPS vs pipeline depth x cores (Table-1 default, 64 clients)";
    rows;
    commentary =
      [
        "depth=1 cores=1 is the serial baseline (pinned trace digest).";
        "Depth overlaps consecutive batches across pre-prepare/prepare/commit";
        "and executes prepared batches speculatively; cores overlap the MAC";
        "fan-out and digest work of a single node. Speculation never reaches";
        "client replies or checkpoints before the commit certificate lands.";
      ];
  }

(* 95/5 read/write mix over the indexed lookup table: the planner proves
   the SELECTs deterministic and read-only (Relsql.Database.
   is_readonly_sql), so the harness submits them on the read-only fast
   path without per-call opt-in; the INSERTs order normally. *)
let read_mix_spec ?(seed = 1) ?(duration = 1.5) ?(app_pages = 512) cfg =
  let init = Relsql.Pbft_service.lookup_index_sql :: lookup_fill_sql () in
  {
    (Run.closed cfg) with
    Run.seed;
    duration;
    groups =
      Run.Service
        (Relsql.Pbft_service.service ~acid:true ~app_pages
           ~schema:Relsql.Pbft_service.lookup_schema ~init ());
    load =
      Run.clients (fun ~client ~seq ->
          if seq mod 20 = 0 then
            Printf.sprintf "INSERT INTO lookup (id, k, pad) VALUES (%d, %d, 'w')"
              (1_000_000 + (client * 100_000) + seq)
              ((client + seq) mod 256)
          else Relsql.Pbft_service.point_select_sql ~key:(((seq * 31) + (client * 7)) mod 256));
  }

let open_loop_spec ?(seed = 1) ?(duration = 2.0) arrival =
  {
    (Run.closed (base_cfg ())) with
    Run.seed;
    duration;
    door =
      Some
        {
          Webgate.Frontdoor.connections = 16;
          flush_bytes = 8 * 1024;
          flush_deadline = 0.005;
          max_queue = 4096;
          max_sessions = 10_000;
        };
    load =
      Run.Arrivals { sessions = 10_000; arrival; op_bytes = 256; conns = 64; retransmit = None };
  }

(* Churn: a rolling crash/repair plan under continuous light load. A
   state-writing workload — values carry the write sequence so every put
   changes page bytes — keeps every rejoin's Merkle diff non-trivial. *)
let churn_spec ?(seed = 7) ?(think = 0.02) ?(horizon = 180.0) ?(period = 15.0) ?(downtime = 1.0) ()
    =
  let cfg =
    {
      (Pbft.Config.default ~f:1) with
      Pbft.Config.view_change_timeout = 0.25;
      (* Rejoin re-keys immediately (Key_request) instead of stalling on
         the 2 s rebroadcast, and live replicas proactively roll their
         session keys on the virtual clock. *)
      rejoin_key_refresh = true;
      key_refresh_period = 5.0;
      (* §2.4 remedy, required under churn: every request is big, and a
         crash window plus a view change can leave a healthy replica
         holding committed batches whose bodies it never saw (the
         clients were answered and will not retransmit). Without peer
         fetch it wedges on the first such entry; once two replicas
         straggle, checkpoints can never reach 2f+1 votes, the log
         window fills, and the whole service halts. *)
      fetch_missing_bodies = true;
    }
  in
  let warmup = 0.5 in
  {
    (Run.closed cfg) with
    Run.seed;
    groups = Run.Service (Pbft.Service.kv_store ());
    load =
      Run.clients ~clients:4 ~think (fun ~client ~seq ->
          Printf.sprintf "put c%d-%d v%d.%s" client (seq mod 128) seq (String.make 64 'v'));
    warmup;
    duration = horizon;
    drain = 0.3;
    plan =
      Run.rotation ~n:cfg.Pbft.Config.n ~start:warmup ~stop:(warmup +. horizon) ~period ~downtime
        ~primary_every:4;
    bucket = 0.25;
  }

let figure5 ?(seed = 1) ?(duration = 2.0) () =
  let rows =
    List.map
      (fun (name, paper, (dynamic, macs, allbig)) ->
        let cfg = with_flags ~dynamic ~macs ~allbig ~batching:true (base_cfg ()) in
        let o = Run.run (sql_spec ~seed ~duration ~acid:true cfg) in
        Report.row ?paper name (Run.e2e o "virtual_tps"))
      figure5_rows
  in
  {
    Report.title = "Figure 5 — PBFT + SQL single-row INSERT throughput (ACID, batching on)";
    rows;
    commentary =
      [
        "A real operation (database insert with journal + fsync) replaces the null";
        "op: throughput collapses by roughly two orders of magnitude versus the";
        "default null-op configuration, and the big-request optimization pays no";
        "dividends because disk time dominates (§4.2).";
        "Paper values: best configuration ≈1242 TPS (derived from the 43% figure),";
        "most robust + dynamic = 534 TPS.";
      ];
  }

let acid_comparison ?(seed = 1) ?(duration = 2.0) () =
  let cfg = with_flags ~dynamic:true ~macs:false ~allbig:false ~batching:true (base_cfg ()) in
  let tps acid = Run.e2e (Run.run (sql_spec ~seed ~duration ~acid cfg)) "virtual_tps" in
  let acid = tps true in
  let noacid = tps false in
  {
    Report.title = "§4.2 — ACID versus No-ACID (most robust configuration, dynamic clients)";
    rows =
      [
        Report.row ~paper:534.0 "ACID (rollback journal + fsync)" acid;
        Report.row ~paper:1155.0 "No-ACID (no journal, no flush)" noacid;
        Report.row ~paper:2.16 ~unit_:"x"
          ~note:"No-ACID / ACID throughput ratio" "speedup"
          (if acid > 0.0 then noacid /. acid else 0.0);
      ];
    commentary = [ "Durability costs about half the throughput, exactly as the paper reports." ];
  }

(* --- trace figures --- *)

let trace_figure ~seed ~cfg ~service ~interesting ~setup =
  let cluster = Pbft.Cluster.create ~seed ~num_clients:2 ~service cfg in
  let trace = Pbft.Cluster.trace cluster in
  Simnet.Trace.set_enabled trace true;
  setup cluster;
  Simnet.Trace.render ~limit:120 trace interesting

let figure1 ?(seed = 1) () =
  let cfg = base_cfg () in
  let labels = [ "request"; "pre-prepare"; "prepare"; "commit"; "reply" ] in
  trace_figure ~seed ~cfg ~service:(Pbft.Service.null ())
    ~interesting:(fun e -> List.mem e.Simnet.Trace.label labels)
    ~setup:(fun cluster ->
      let done_ = ref false in
      Pbft.Client.invoke (Pbft.Cluster.client cluster 0) null_op (fun _ -> done_ := true);
      Pbft.Cluster.run cluster ~seconds:1.0;
      if not !done_ then failwith "figure1: request did not complete")

let figure2 ?(seed = 1) () =
  let cfg = { (base_cfg ()) with Pbft.Config.dynamic_clients = true } in
  let labels =
    [ "join-request"; "join-challenge"; "join-response"; "request"; "pre-prepare"; "prepare";
      "commit"; "join-reply"; "session-key" ]
  in
  trace_figure ~seed ~cfg ~service:(Pbft.Service.null ())
    ~interesting:(fun e -> List.mem e.Simnet.Trace.label labels)
    ~setup:(fun cluster ->
      let got = ref None in
      Pbft.Client.join (Pbft.Cluster.client cluster 0) ~idbuf:"alice:secret" (fun c -> got := c);
      Pbft.Cluster.run cluster ~seconds:5.0;
      match !got with
      | Some _ -> ()
      | None -> failwith "figure2: join did not complete")

let figure3 ?(seed = 1) () =
  (* Part 1: the VFS call sequence of one ACID insert, standalone. *)
  let calls = Buffer.create 512 in
  let log fmt = Printf.ksprintf (fun s -> Buffer.add_string calls ("  " ^ s ^ "\n")) fmt in
  let wrap name (f : Relsql.Vfs.file) =
    {
      Relsql.Vfs.read =
        (fun ~pos ~len ->
          log "xRead  %-7s pos=%-6d len=%d" name pos len;
          f.Relsql.Vfs.read ~pos ~len);
      (* A borrowed page view is still SQLite's xRead at this seam. *)
      view =
        (fun ~pos ~len ->
          log "xRead  %-7s pos=%-6d len=%d" name pos len;
          f.Relsql.Vfs.view ~pos ~len);
      write =
        (fun ~pos s ->
          log "xWrite %-7s pos=%-6d len=%d" name pos (String.length s);
          f.Relsql.Vfs.write ~pos s);
      sync =
        (fun () ->
          log "xSync  %-7s (durability barrier)" name;
          f.Relsql.Vfs.sync ());
      size = f.Relsql.Vfs.size;
      truncate =
        (fun n ->
          log "xTruncate %-7s to %d" name n;
          f.Relsql.Vfs.truncate n);
    }
  in
  let inner = Relsql.Vfs.in_memory ~seed () in
  let vfs =
    {
      inner with
      Relsql.Vfs.main = wrap "main" inner.Relsql.Vfs.main;
      journal = Option.map (wrap "journal") inner.Relsql.Vfs.journal;
      time =
        (fun () ->
          log "xCurrentTime  -> agreed pre-prepare timestamp (§2.5)";
          inner.Relsql.Vfs.time ());
      random =
        (fun () ->
          log "xRandomness   -> agreed pre-prepare randomness (§2.5)";
          inner.Relsql.Vfs.random ());
    }
  in
  let db = Relsql.Database.open_db vfs in
  ignore (Relsql.Database.exec_exn db Relsql.Pbft_service.vote_schema);
  Buffer.add_string calls "  --- INSERT begins ---\n";
  ignore
    (Relsql.Database.exec_exn db (Relsql.Pbft_service.insert_vote_sql ~voter:"v1" ~choice:"alice"));
  (* Part 2: the same operation replicated. *)
  let cfg = base_cfg () in
  let replicated =
    trace_figure ~seed ~cfg ~service:(Relsql.Pbft_service.service ())
      ~interesting:(fun e ->
        List.mem e.Simnet.Trace.label [ "request"; "pre-prepare"; "prepare"; "commit"; "reply" ])
      ~setup:(fun cluster ->
        let done_ = ref false in
        Pbft.Client.invoke (Pbft.Cluster.client cluster 0)
          (Relsql.Pbft_service.insert_vote_sql ~voter:"v1" ~choice:"alice") (fun _ ->
            done_ := true);
        Pbft.Cluster.run cluster ~seconds:1.0;
        if not !done_ then failwith "figure3: insert did not complete")
  in
  "VFS call sequence for one ACID INSERT (engine -> VFS, Figure 3 seam):\n"
  ^ Buffer.contents calls
  ^ "\nThe same INSERT through the replicated service (message trace):\n" ^ replicated

(* --- §2.3 recovery / authenticator rebroadcast --- *)

let recovery ?(seed = 1) ?(periods = [ 0.5; 1.0; 2.0; 4.0 ]) () =
  let restart_at = 1.2 in
  let rows =
    List.map
      (fun period ->
        let cfg = { (base_cfg ()) with Pbft.Config.authenticator_rebroadcast = period } in
        let o =
          Run.run
            {
              (Run.closed cfg) with
              Run.seed;
              warmup = 0.4;
              duration = 2.0 +. (2.0 *. period);
              plan = [ (restart_at, Run.Restart 2) ];
            }
        in
        let r2 = Pbft.Cluster.replica (Run.cluster o.Run.deployment 0) 2 in
        let stall =
          match Pbft.Replica.recovery_completed_at r2 with
          | Some t -> t -. restart_at
          | None -> nan
        in
        (* Blind rebroadcast load: every node refreshes its keys with every
           replica each period. *)
        let n = cfg.Pbft.Config.n and clients = 12 in
        let msg_rate = float_of_int ((clients * n) + (n * (n - 1))) /. period in
        Report.row
          ~note:
            (Printf.sprintf "rebroadcast load %.0f msg/s; auth failures %d" msg_rate
               (counted o ~node:2 "auth_failures"))
          ~unit_:"s"
          (Printf.sprintf "rebroadcast period %.1fs" period)
          stall)
      periods
  in
  {
    Report.title =
      "§2.3 — replica restart: recovery stalls until the blind session-key rebroadcast";
    rows;
    commentary =
      [
        "The restarted replica cannot validate clients' MAC authenticators (its";
        "session-key table is transient state); it recovers only after the next";
        "periodic rebroadcast. Shortening the period shortens the stall but";
        "multiplies the standing message load — the §2.3 trade-off.";
      ];
  }

(* --- §2.4 packet loss --- *)

let packet_loss ?(seed = 1) () =
  let drop_at = 1.0 in
  let victim = 3 in
  (* One client request lost on its way to [dst]. *)
  let run_case ~cfg ~dst =
    let o =
      Run.run
        {
          (Run.closed cfg) with
          Run.seed;
          warmup = 0.4;
          duration = 3.0;
          plan =
            [
              ( drop_at,
                Run.Drop_next
                  (fun ~src ~dst:d ~label ->
                    src >= Pbft.Types.client_addr_base && d = dst && label = "request") );
            ];
        }
    in
    ( o,
      float_of_int
        (counted o ~node:victim "demotion_transfers" + counted o ~node:victim "rejoin_transfers")
    )
  in
  let cfg_a = base_cfg () in
  let oa, ra = run_case ~cfg:cfg_a ~dst:victim in
  let cfg_b = { (base_cfg ()) with Pbft.Config.big_request_threshold = 8192 } in
  let ob, rb = run_case ~cfg:cfg_b ~dst:0 in
  let cfg_c = { cfg_a with Pbft.Config.fetch_missing_bodies = true } in
  let oc_, rc = run_case ~cfg:cfg_c ~dst:victim in
  {
    Report.title = "§2.4 — a single lost UDP datagram";
    rows =
      [
        Report.row ~unit_:"transfers"
          ~note:
            (Printf.sprintf "replica %d stalls; recovers by checkpoint state transfer (retrans %d)"
               victim (retransmissions oa))
          "A: big-request body lost -> state transfers at victim"
          ra;
        Report.row ~unit_:"transfers"
          ~note:
            (Printf.sprintf "client retransmits after %.0f ms; no replica stalls (retrans %d)"
               (cfg_b.Pbft.Config.client_timeout *. 1000.0)
               (retransmissions ob))
          "B: non-big request to primary lost -> state transfers at victim"
          rb;
        Report.row ~unit_:"transfers"
          ~note:
            (Printf.sprintf "remedy: victim fetches the body from peers (retrans %d)"
               (retransmissions oc_))
          "C: case A with fetch_missing_bodies remedy"
          rc;
      ];
    commentary =
      [
        "Case A reproduces the paper's finding: under the big-request optimization";
        "a replica that misses one client datagram cannot execute and is lost to";
        "the service until the next checkpoint's state transfer. Case B shows the";
        "non-big path degrading gracefully via client retransmission. Case C is";
        "the engineering remedy the optimization forecloses by default.";
      ];
  }

(* --- §2.5 non-determinism validation --- *)

let nondet_validation ?(seed = 1) () =
  let restart_at = 3.0 in
  let run_policy policy =
    let cfg =
      {
        (base_cfg ()) with
        Pbft.Config.use_macs = false;
        big_request_threshold = 1 lsl 20;
        fetch_missing_entries = true;
        checkpoint_interval = 50_000;
        log_window = 100_000;
        nondet = policy;
      }
    in
    let o =
      Run.run
        {
          (Run.closed cfg) with
          Run.seed;
          load = null_load ~clients:3 ~think:0.02 ();
          warmup = 0.4;
          duration = 6.0;
          plan = [ (restart_at, Run.Restart 2) ];
        }
    in
    let cluster = Run.cluster o.Run.deployment 0 in
    let r2 = Pbft.Cluster.replica cluster 2 in
    let caught_up =
      Pbft.Replica.last_executed r2
      >= Pbft.Replica.last_executed (Pbft.Cluster.replica cluster 0) - 5
    in
    (counted o ~node:2 "nondet_rejects", caught_up)
  in
  let rej_none, ok_none = run_policy Pbft.Config.No_validation in
  let rej_delta, ok_delta = run_policy (Pbft.Config.Delta 1.0) in
  let rej_skip, ok_skip = run_policy (Pbft.Config.Delta_skip_on_recovery 1.0) in
  let row name rejects ok =
    Report.row ~unit_:"rejects"
      ~note:(if ok then "replica caught up" else "RECOVERY IMPEDED: replica left behind")
      name (float_of_int rejects)
  in
  {
    Report.title = "§2.5 — non-determinism validation versus log replay during recovery";
    rows =
      [
        row "no validation" rej_none ok_none;
        row "delta validation (1 s)" rej_delta ok_delta;
        row "delta validation, skipped during recovery" rej_skip ok_skip;
      ];
    commentary =
      [
        "A restarted replica replays logged requests from its peers. Their";
        "pre-prepare timestamps are up to several seconds old, so plain";
        "delta validation rejects them and the replica can never catch up —";
        "the subtle issue §2.5 identifies. Skipping validation for replayed";
        "requests (the paper's proposed fix) restores recovery.";
      ];
  }

(* --- §3.3.3 WAN --- *)

let wan ?(seed = 1) ?(duration = 3.0) () =
  let run_f f profile =
    let cfg = { (Pbft.Config.default ~f) with Pbft.Config.client_timeout = 2.0 } in
    Run.run { (Run.closed cfg) with Run.seed; profile; duration; warmup = 1.0 }
  in
  let mean_ms o = Util.Stats.mean o.Run.latency *. 1000.0 in
  let lan1 = run_f 1 Simnet.Net.lan_profile in
  let wan1 = run_f 1 Simnet.Net.wan_profile in
  let wan2 = run_f 2 Simnet.Net.wan_profile in
  {
    Report.title = "§3.3.3 — wide-area deployment (replicas in different physical locations)";
    rows =
      [
        Report.row ~unit_:"ms" "LAN f=1 mean latency" (mean_ms lan1);
        Report.row ~unit_:"ms" "WAN f=1 mean latency" (mean_ms wan1);
        Report.row ~unit_:"ms" "WAN f=2 (n=7) mean latency" (mean_ms wan2);
        Report.row "WAN f=1 throughput" (Run.e2e wan1 "virtual_tps");
        Report.row "WAN f=2 (n=7) throughput" (Run.e2e wan2 "virtual_tps");
      ];
    commentary =
      [
        "Three agreement legs at WAN latencies put request latency in the";
        "hundreds of milliseconds, and the quadratic message complexity grows";
        "the load with n — the deployment concern of §3.3.3. (BFTsim could not";
        "scale to interesting sizes; this simulator sweeps n directly.)";
      ];
  }

let payload_sweep ?(seed = 1) ?(duration = 1.5) () =
  let rows =
    List.map
      (fun size ->
        let o =
          Run.run
            {
              (Run.closed (base_cfg ())) with
              Run.seed;
              duration;
              groups = Run.Service (Pbft.Service.null ~reply_size:size ());
              load = Run.clients (fun ~client:_ ~seq:_ -> String.make size 'q');
            }
        in
        Report.row (Printf.sprintf "%d-byte request/response" size) (Run.e2e o "virtual_tps"))
      [ 256; 1024; 2048; 4096 ]
  in
  {
    Report.title = "§4.1 — payload size sweep (default configuration)";
    rows;
    commentary =
      [ "The paper: \"The results for varying request and response sizes are";
        "similar\" — throughput is dominated by per-request fixed work, not bytes." ];
  }

let loss_sweep ?(seed = 1) ?(duration = 3.0) () =
  let run_with_loss cfg loss =
    let o =
      Run.run
        { (Run.closed cfg) with Run.seed; duration; profile = { Simnet.Net.lan_profile with loss } }
    in
    let pbft = Util.Metrics.total o.Run.metrics ~layer:"pbft" in
    (Run.e2e o "virtual_tps", pbft "demotion_transfers" + pbft "rejoin_transfers")
  in
  let default = base_cfg () in
  let robust =
    { (base_cfg ()) with Pbft.Config.big_request_threshold = 8192 }
  in
  let rows =
    List.concat_map
      (fun loss ->
        let tps_d, tr_d = run_with_loss default loss in
        let tps_r, tr_r = run_with_loss robust loss in
        [
          Report.row
            ~note:(Printf.sprintf "%d checkpoint recoveries" tr_d)
            (Printf.sprintf "optimized (allbig), %.1f%% loss" (loss *. 100.0))
            tps_d;
          Report.row
            ~note:(Printf.sprintf "%d checkpoint recoveries" tr_r)
            (Printf.sprintf "robust (noallbig), %.1f%% loss" (loss *. 100.0))
            tps_r;
        ])
      [ 0.0; 0.001; 0.01; 0.05 ]
  in
  {
    Report.title =
      "Loss sweep — the optimization/robustness trade-off of §2.4/§4.1, quantified";
    rows;
    commentary =
      [
        "Under the default big-request optimization a lost client->replica body";
        "stalls a replica until checkpoint recovery; the robust configuration";
        "retries through the client instead. The optimized configuration's";
        "advantage shrinks (and its recovery churn grows) as loss rises.";
      ];
  }

let batching_ablation ?(seed = 1) ?(duration = 1.5) () =
  let rows =
    List.concat_map
      (fun window ->
        List.map
          (fun delay ->
            let cfg =
              { (base_cfg ()) with Pbft.Config.congestion_window = window; batch_delay = delay }
            in
            Report.row
              (Printf.sprintf "window=%d delay=%.0fus" window (delay *. 1e6))
              (null_tps ~seed ~duration cfg))
          [ 0.0; 80e-6; 200e-6 ])
      [ 1; 2; 4 ]
  in
  {
    Report.title = "Ablation — congestion window and aggregation delay (default config)";
    rows;
    commentary =
      [ "Sensitivity of the headline number to the two batching knobs (DESIGN.md)." ];
  }
