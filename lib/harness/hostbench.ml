type measurement = {
  name : string;
  host_seconds : float;
  events : int;
  events_per_sec : float;
  bytes_hashed : int;
  hashed_mb_per_sec : float;
  virtual_tps : float;
  completed : int;
  checkpoint_count : int;
  undo_snapshots : int;
  bytes_copied : int;
  bytes_copied_per_checkpoint : float;
  deep_copy_bytes_per_checkpoint : float;
  pages_read : int;
  rows_scanned : int;
  speculative_executions : int;
  rollbacks : int;
  tentative_completed : int;
  core_utilization : float;
  (* v5: latency distribution and overload/gateway telemetry. Closed-loop
     workloads leave the gateway block zero. *)
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  shed : int;
  gw_evictions : int;
  gw_queue_peak : int;
  replica_queue_peak : int;
  ro_cache_evictions : int;
  sessions : int;
  arrivals : int;
  offered_load : float;
  flushes_size : int;
  flushes_deadline : int;
  reply_cache_hits : int;
  events_per_request : float;
  alloc_per_request : float;
  (* v6: sharded-deployment telemetry. Single-group workloads report one
     shard and no cross-shard traffic. *)
  shards : int;
  shard_tps : float array;
  shard_queue_peak : int array;
  cross_commits : int;
  cross_aborts : int;
  cross_timeouts : int;
  (* v7: crash/restart and state-transfer telemetry. The transfer block
     splits §2.4 demotions from crash/restart rejoins and exposes the
     Merkle-diff page savings; the churn block is zero everywhere except
     the churn workload. *)
  demotion_transfers : int;
  rejoin_transfers : int;
  transfer_pages_fetched : int;
  transfer_pages_full : int;
  crashes : int;
  restarts : int;
  availability : float;
  mean_recovery : float;
  max_recovery : float;
  failures : string list;
}

(* The host-cost envelope every workload shares: wall clock, SHA-256
   bytes, COW bytes copied, relational-engine counters and heap
   allocation around one run. Host wall-clock on purpose: this measures
   the benchmark harness itself and never feeds simulation state or the
   trace digest. *)
let measure ~name spec =
  let[@detlint.allow wall_clock] t0 = Unix.gettimeofday () in
  let h0 = Crypto.Sha256.bytes_hashed () in
  let c0 = Statemgr.Pages.bytes_copied () in
  let p0 = Relsql.Database.pages_read_total () in
  let s0 = Relsql.Database.rows_scanned_total () in
  let a0 = Gc.allocated_bytes () in
  let r = Run.run spec in
  let alloc = Gc.allocated_bytes () -. a0 in
  let[@detlint.allow wall_clock] host_seconds = Unix.gettimeofday () -. t0 in
  let per_sec n = if host_seconds > 0.0 then float_of_int n /. host_seconds else 0.0 in
  let bytes_hashed = Crypto.Sha256.bytes_hashed () - h0 in
  let bytes_copied = Statemgr.Pages.bytes_copied () - c0 in
  let t = r.Run.replicas in
  let snapshots = t.Run.checkpoints + t.undo_snapshots in
  let per_request x = if r.completed > 0 then x /. float_of_int r.completed else 0.0 in
  (* Schema v7 as it was first written: open-loop rows count events and
     allocation over the measured window and the door's counters over
     the whole run; session rows count the door's counters over the
     window; every other row counts over the whole run. *)
  let open_loop = Option.is_some r.open_loop in
  let windowed = match spec.Run.load with Run.Sessions _ -> true | _ -> false in
  let door f =
    match r.door with
    | None -> 0
    | Some (before, after) -> if windowed then f after - f before else f after
  in
  let final f = match r.door with None -> 0 | Some (_, after) -> f after in
  let churn f = match r.churn with None -> 0.0 | Some c -> f c in
  {
    name;
    host_seconds;
    events = r.events;
    events_per_sec = per_sec r.events;
    bytes_hashed;
    hashed_mb_per_sec = per_sec bytes_hashed /. 1e6;
    virtual_tps = r.tps;
    completed = r.completed;
    checkpoint_count = t.checkpoints;
    undo_snapshots = t.undo_snapshots;
    bytes_copied;
    bytes_copied_per_checkpoint =
      (if snapshots > 0 then float_of_int bytes_copied /. float_of_int snapshots else 0.0);
    deep_copy_bytes_per_checkpoint = t.allocated_bytes;
    pages_read = Relsql.Database.pages_read_total () - p0;
    rows_scanned = Relsql.Database.rows_scanned_total () - s0;
    speculative_executions = t.speculative_execs;
    rollbacks = t.rollbacks;
    tentative_completed = r.tentative;
    core_utilization = t.core_utilization;
    p50_latency = Util.Stats.p50 r.latency;
    p95_latency = Util.Stats.p95 r.latency;
    p99_latency = Util.Stats.p99 r.latency;
    shed = door (fun d -> d.Run.shed);
    gw_evictions = final (fun d -> d.Run.evictions);
    gw_queue_peak = final (fun d -> Array.fold_left Int.max 0 d.Run.queue_peaks);
    replica_queue_peak = t.queue_peak;
    ro_cache_evictions = t.ro_cache_evictions;
    sessions =
      (match spec.load with
      | Run.Sessions { sessions; _ } | Run.Arrivals { sessions; _ } -> sessions
      | Run.Clients _ -> 0);
    arrivals = (match r.open_loop with Some o -> o.Run.arrivals | None -> 0);
    offered_load = (match r.open_loop with Some o -> o.Run.offered | None -> 0.0);
    flushes_size = door (fun d -> d.Run.flushes_size);
    flushes_deadline = door (fun d -> d.Run.flushes_deadline);
    reply_cache_hits = door (fun d -> d.Run.reply_cache_hits);
    events_per_request =
      per_request (float_of_int (if open_loop then r.window_events else r.events));
    alloc_per_request = per_request (if open_loop then r.window_alloc else alloc);
    shards = Relsql.Shard.shards (Run.topology r.deployment);
    shard_tps =
      (match (spec.groups, r.door) with
      | Run.Sharded _, Some (before, after) ->
        Array.map2
          (fun b a -> if r.window > 0.0 then float_of_int (a - b) /. r.window else 0.0)
          before.Run.lane_completed after.Run.lane_completed
      | _ -> [| r.tps |]);
    shard_queue_peak =
      (match r.door with Some (_, after) -> after.Run.queue_peaks | None -> [| 0 |]);
    cross_commits = door (fun d -> d.Run.cross_commits);
    cross_aborts = door (fun d -> d.Run.cross_aborts);
    cross_timeouts = door (fun d -> d.Run.cross_timeouts);
    demotion_transfers = t.demotion_transfers;
    rejoin_transfers = t.rejoin_transfers;
    transfer_pages_fetched = t.pages_fetched;
    transfer_pages_full = t.pages_full;
    crashes = (match r.churn with Some c -> c.Run.crashes | None -> 0);
    restarts = (match r.churn with Some c -> c.Run.restarts | None -> 0);
    availability = churn (fun c -> c.Run.availability);
    mean_recovery = churn (fun c -> c.Run.mean_recovery);
    max_recovery = churn (fun c -> c.Run.max_recovery);
    failures = Lazy.force r.failures;
  }

let default_cfg () =
  Experiments.with_flags ~dynamic:false ~macs:true ~allbig:true ~batching:true
    (Pbft.Config.default ~f:1)

let workloads ?(seed = 1) ?(duration = 1.5) () =
  let cfg = default_cfg () in
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
  traced_digest { (Run.closed (default_cfg ())) with Run.seed; warmup = 0.1; duration = seconds }

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

let to_json ?(now = "unknown") ms =
  let open Webgate.Json in
  let workload m =
    Obj
      [
        ("name", Str m.name);
        ("host_seconds", Num m.host_seconds);
        ("events", Num (float_of_int m.events));
        ("events_per_sec", Num m.events_per_sec);
        ("bytes_hashed", Num (float_of_int m.bytes_hashed));
        ("hashed_mb_per_sec", Num m.hashed_mb_per_sec);
        ("virtual_tps", Num m.virtual_tps);
        ("completed", Num (float_of_int m.completed));
        ("checkpoint_count", Num (float_of_int m.checkpoint_count));
        ("undo_snapshots", Num (float_of_int m.undo_snapshots));
        ("bytes_copied", Num (float_of_int m.bytes_copied));
        ("bytes_copied_per_checkpoint", Num m.bytes_copied_per_checkpoint);
        ("deep_copy_bytes_per_checkpoint", Num m.deep_copy_bytes_per_checkpoint);
        ("pages_read", Num (float_of_int m.pages_read));
        ("rows_scanned", Num (float_of_int m.rows_scanned));
        ("speculative_executions", Num (float_of_int m.speculative_executions));
        ("rollbacks", Num (float_of_int m.rollbacks));
        ("tentative_completed", Num (float_of_int m.tentative_completed));
        ("stable_completed", Num (float_of_int (m.completed - m.tentative_completed)));
        ("core_utilization", Num m.core_utilization);
        ("p50_latency", Num m.p50_latency);
        ("p95_latency", Num m.p95_latency);
        ("p99_latency", Num m.p99_latency);
        ("shed", Num (float_of_int m.shed));
        ("gw_evictions", Num (float_of_int m.gw_evictions));
        ("gw_queue_peak", Num (float_of_int m.gw_queue_peak));
        ("replica_queue_peak", Num (float_of_int m.replica_queue_peak));
        ("ro_cache_evictions", Num (float_of_int m.ro_cache_evictions));
        ("sessions", Num (float_of_int m.sessions));
        ("arrivals", Num (float_of_int m.arrivals));
        ("offered_load", Num m.offered_load);
        ("flushes_size", Num (float_of_int m.flushes_size));
        ("flushes_deadline", Num (float_of_int m.flushes_deadline));
        ("reply_cache_hits", Num (float_of_int m.reply_cache_hits));
        ("events_per_request", Num m.events_per_request);
        ("alloc_per_request", Num m.alloc_per_request);
        ("shards", Num (float_of_int m.shards));
        ("shard_tps", Arr (Array.to_list (Array.map (fun t -> Num t) m.shard_tps)));
        ( "shard_queue_peak",
          Arr (Array.to_list (Array.map (fun q -> Num (float_of_int q)) m.shard_queue_peak)) );
        ("cross_commits", Num (float_of_int m.cross_commits));
        ("cross_aborts", Num (float_of_int m.cross_aborts));
        ("cross_timeouts", Num (float_of_int m.cross_timeouts));
        ("demotion_transfers", Num (float_of_int m.demotion_transfers));
        ("rejoin_transfers", Num (float_of_int m.rejoin_transfers));
        ("transfer_pages_fetched", Num (float_of_int m.transfer_pages_fetched));
        ("transfer_pages_full", Num (float_of_int m.transfer_pages_full));
        ("crashes", Num (float_of_int m.crashes));
        ("restarts", Num (float_of_int m.restarts));
        ("availability", Num m.availability);
        ("mean_recovery", Num m.mean_recovery);
        ("max_recovery", Num m.max_recovery);
      ]
  in
  pretty
    (Obj
       [
         ("schema", Str "pbft-repro/bench/v7");
         ("generated", Str now);
         ("trace_digest", Str (trace_digest ()));
         ("workloads", Arr (List.map workload ms));
       ])
