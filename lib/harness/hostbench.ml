type row = { name : string; metrics : Util.Metrics.snapshot; failures : string list }

(* One run and the process-wide deltas around it: SHA-256 bytes, COW
   bytes copied, relational-engine counters and heap allocation, all
   read before the safety check, whose Merkle roots hash every page. *)
let measure ~name spec =
  let h0 = Crypto.Sha256.bytes_hashed () in
  let c0 = Statemgr.Pages.bytes_copied () in
  let p0 = Relsql.Database.pages_read_total () in
  let s0 = Relsql.Database.rows_scanned_total () in
  let a0 = Gc.allocated_bytes () in
  let r = Run.run spec in
  let alloc = Gc.allocated_bytes () -. a0 in
  let hashed = Crypto.Sha256.bytes_hashed () - h0 in
  let copied = Statemgr.Pages.bytes_copied () - c0 in
  let pages_read = Relsql.Database.pages_read_total () - p0 in
  let rows_scanned = Relsql.Database.rows_scanned_total () - s0 in
  let per_request x = if r.completed > 0 then x /. float_of_int r.completed else 0.0 in
  (* An open-loop row counts events and allocation over the measured
     window, every other row over the whole run, boot included. *)
  let open_loop = match spec.Run.load with Run.Arrivals _ -> true | _ -> false in
  let whole layer name = { Util.Metrics.node = Util.Metrics.run_node; layer; name } in
  let open Util.Metrics in
  let end_to_end =
    [
      ("completed", Count r.completed);
      ("window", Real r.window);
      ("virtual_tps", Real r.tps);
      ("p50_latency", Real (Util.Stats.p50 r.latency));
      ("p95_latency", Real (Util.Stats.p95 r.latency));
      ("p99_latency", Real (Util.Stats.p99 r.latency));
      ("events", Count r.events);
      ( "events_per_request",
        Real (per_request (float_of_int (if open_loop then r.window_events else r.events))) );
      ( "alloc_words_per_request",
        Real
          (per_request (if open_loop then r.window_alloc else alloc)
          /. float_of_int (Sys.word_size / 8)) );
    ]
    @
    match spec.load with
    | Run.Clients _ -> [ ("tentative_completed", Count r.tentative) ]
    | Run.Sessions _ | Run.Arrivals _ -> []
  in
  (* A run that never reached the relational engine has no relsql
     section. *)
  let relsql =
    if pages_read = 0 then []
    else
      [
        (whole "relsql" "pages_read", Count pages_read);
        (whole "relsql" "rows_scanned", Count rows_scanned);
      ]
  in
  {
    name;
    metrics =
      with_values r.metrics
        (List.map (fun (n, v) -> (whole "end_to_end" n, v)) end_to_end
        @ [
            (whole "crypto" "bytes_hashed", Count hashed);
            (whole "statemgr" "bytes_copied", Count copied);
          ]
        @ relsql);
    failures = Lazy.force r.failures;
  }

let workloads ?(seed = 1) ?(duration = 1.5) () =
  let cfg = Pbft.Config.default ~f:1 in
  List.map
    (fun (row, _paper, (dynamic, macs, allbig, batching)) ->
      let cfg =
        Experiments.with_flags ~dynamic ~macs ~allbig ~batching (Pbft.Config.default ~f:1)
      in
      ("table1:" ^ row, { (Run.closed cfg) with Run.seed; duration }))
    Experiments.table1_rows
  @ [
      ("sql:insert_acid", Experiments.sql_spec ~seed ~duration ~acid:true cfg);
      ("ckpt:sql_large_state", Experiments.sql_large_state_spec ~seed ~duration cfg);
      ( "sql:indexed_point",
        Experiments.indexed_sql_spec ~seed ~duration ~indexed:true ~range:false cfg );
      ( "sql:indexed_range",
        Experiments.indexed_sql_spec ~seed ~duration ~indexed:true ~range:true cfg );
      ( "sql:forced_scan",
        Experiments.indexed_sql_spec ~seed ~duration ~indexed:false ~range:false cfg );
      ( "pipeline:serial",
        Experiments.pipeline_spec ~seed ~duration (Experiments.pipeline_cfg ~depth:1 ~cores:1 ()) );
      ( "pipeline:depth8_cores4",
        Experiments.pipeline_spec ~seed ~duration (Experiments.pipeline_cfg ~depth:8 ~cores:4 ()) );
      ("sql:read_mix", Experiments.read_mix_spec ~seed ~duration cfg);
      (* Representative open-loop front-door rows: steady Poisson load
         near the closed-loop ceiling, and a bursty square wave that
         exercises the deadline flush and queue growth. *)
      ("openloop:poisson12k", Experiments.open_loop_spec ~seed ~duration (Run.Poisson 12_000.0));
      ( "openloop:bursty",
        Experiments.open_loop_spec ~seed ~duration
          (Run.Bursty { base = 2_000.0; burst = 24_000.0; period = 0.2; duty = 0.25 }) );
    ]

let workload ?seed ?duration name = List.assoc name (workloads ?seed ?duration ())

let digest_trace tr ~completed =
  let ctx = Crypto.Sha256.init () in
  List.iter
    (fun (e : Simnet.Trace.entry) ->
      Crypto.Sha256.feed ctx
        (* %.9f is the digest's pinned preimage format; changing it would
           change every recorded trace digest. *)
        (Printf.sprintf "%.9f|%d|%d|%s|%d|%s\n" e.time e.src e.dst e.label e.size e.detail
         [@detlint.allow float_format]))
    (Simnet.Trace.entries tr);
  Crypto.Sha256.feed ctx (Printf.sprintf "completed=%d" completed);
  Util.Hexdump.of_string (Crypto.Sha256.finalize ctx)

let traced spec =
  let r = Run.run { spec with Run.trace = true } in
  (digest_trace (Pbft.Cluster.trace (Run.cluster r.Run.deployment 0)) ~completed:r.completed, r)

let traced_digest spec = fst (traced spec)

let trace_digest ?(seed = 1) ?(seconds = 0.3) () =
  traced_digest { (Run.closed (Pbft.Config.default ~f:1)) with Run.seed; warmup = 0.1; duration = seconds }

(* The replica's equivalence proof: pipelined speculation (depth 8 on 4
   cores) with dynamic clients, whose joins ride the system-op intake.
   Dropped commits starve the speculated suffix until a view change rolls
   it back; the next primary (replica 1) then goes mute and is voted out;
   last, a backup crashes and rejoins by state transfer, re-keying at
   once. The run stays within the trace's capacity, so every datagram is
   hashed. *)
let replica_digest_spec ?(seed = 1) () =
  let cfg =
    {
      (Experiments.pipeline_cfg ~depth:8 ~cores:4 ()) with
      Pbft.Config.dynamic_clients = true;
      view_change_timeout = 0.25;
      rejoin_key_refresh = true;
    }
  in
  {
    (Run.closed cfg) with
    Run.seed;
    load = Run.clients ~clients:4 (fun ~client:_ ~seq:_ -> String.make 256 'r');
    warmup = 0.1;
    duration = 1.2;
    plan =
      [
        (0.2, Run.Drop "commit");
        (0.5, Run.Heal);
        (0.6, Run.Adversary (1, Pbft.Adversary.Mute));
        (1.0, Run.Heal);
        (1.05, Run.Crash (Run.Replica 3, 0.05));
      ];
  }

let replica_trace_digest ?seed () = traced_digest (replica_digest_spec ?seed ())

(* The front door's equivalence proof: a short seeded open-loop run whose
   bursty arrivals hit both flush triggers, whose queue bound sheds during
   bursts, whose session LRU churns and whose retransmissions (after the
   occasional lost reply) exercise the reply cache. Any behavioural
   change to the door moves this digest. *)
let gateway_trace_digest ?(seed = 1) ?(seconds = 0.3) () =
  traced_digest
    {
      (Experiments.open_loop_spec ~seed ~duration:seconds (Run.Poisson 0.0)) with
      Run.profile = { Simnet.Net.lan_profile with Simnet.Net.loss = 0.002 };
      warmup = 0.05;
      door =
        Some
          {
            Webgate.Frontdoor.connections = 2;
            flush_bytes = 1024;
            flush_deadline = 0.003;
            max_queue = 32;
            max_sessions = 256;
          };
      load =
        Run.Arrivals
          {
            sessions = 300;
            arrival = Run.Bursty { base = 300.0; burst = 18000.0; period = 0.1; duty = 0.3 };
            op_bytes = 128;
            conns = 8;
            retransmit = Some 0.02;
          };
    }

let to_json ?(now = "unknown") rows =
  let open Webgate.Json in
  let num v = Num (Util.Metrics.to_float v) in
  let workload row =
    let sections = Util.Metrics.layers row.metrics in
    Obj
      [
        ("name", Str row.name);
        ( "end_to_end",
          Obj
            (List.map
               (fun (n, v) -> (n, num v))
               (Option.value ~default:[] (List.assoc_opt "end_to_end" sections))) );
        ( "layers",
          Obj
            (List.filter_map
               (fun (layer, entries) ->
                 if String.equal layer "end_to_end" then None
                 else Some (layer, Obj (List.map (fun (n, v) -> (n, num v)) entries)))
               sections) );
      ]
  in
  pretty
    (Obj
       [
         ("schema", Str "pbft-repro/bench/v8");
         ("generated", Str now);
         ("trace_digest", Str (trace_digest ()));
         ("workloads", Arr (List.map workload rows));
       ])
