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
}

(* The host-cost envelope every workload shares: wall clock, SHA-256
   bytes, COW bytes copied and heap allocation around one run. Host
   wall-clock on purpose: this measures the benchmark harness itself and
   never feeds simulation state or the trace digest. *)
let enveloped run =
  let[@detlint.allow wall_clock] t0 = Unix.gettimeofday () in
  let h0 = Crypto.Sha256.bytes_hashed () in
  let c0 = Statemgr.Pages.bytes_copied () in
  let a0 = Gc.allocated_bytes () in
  let result = run () in
  let alloc = Gc.allocated_bytes () -. a0 in
  let[@detlint.allow wall_clock] host_seconds = Unix.gettimeofday () -. t0 in
  let per_sec n = if host_seconds > 0.0 then float_of_int n /. host_seconds else 0.0 in
  ( result,
    host_seconds,
    per_sec,
    Crypto.Sha256.bytes_hashed () - h0,
    Statemgr.Pages.bytes_copied () - c0,
    alloc )

(* Checkpoint and undo-snapshot totals over [reps], COW bytes per
   snapshot, and the run-average busy fraction of the replicas' virtual
   cores — the utilization the pipeline's extra cores actually achieve. *)
let replica_totals reps ~bytes_copied =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reps in
  let checkpoints = sum Pbft.Replica.checkpoints_taken in
  let undos = sum Pbft.Replica.undo_snapshots in
  let snapshots = checkpoints + undos in
  let busy =
    Array.fold_left (fun acc r -> acc +. Simnet.Cpu.utilization (Pbft.Replica.cpu r) ~since:0.0) 0.0
      reps
  in
  ( checkpoints,
    undos,
    (if snapshots > 0 then float_of_int bytes_copied /. float_of_int snapshots else 0.0),
    if Array.length reps = 0 then 0.0 else busy /. float_of_int (Array.length reps) )

let measure ~name spec =
  let p0 = Relsql.Database.pages_read_total () in
  let r0 = Relsql.Database.rows_scanned_total () in
  let (outcome, cluster), host_seconds, per_sec, bytes_hashed, bytes_copied, alloc =
    enveloped (fun () -> Scenario.run_cluster spec)
  in
  let pages_read = Relsql.Database.pages_read_total () - p0 in
  let rows_scanned = Relsql.Database.rows_scanned_total () - r0 in
  let events = Simnet.Engine.events (Pbft.Cluster.engine cluster) in
  let reps = Pbft.Cluster.replicas cluster in
  let checkpoint_count, undo_snapshots, bytes_copied_per_checkpoint, core_utilization =
    replica_totals reps ~bytes_copied
  in
  (* What a deep-copy checkpointer would move per snapshot: every
     allocated page of one replica's region (sampled at run end). *)
  let deep_copy_bytes_per_checkpoint =
    let total =
      Array.fold_left
        (fun acc r ->
          let pages = Pbft.Replica.pages r in
          acc + (Statemgr.Pages.allocated_pages pages * Statemgr.Pages.page_size pages))
        0 reps
    in
    if Array.length reps > 0 then float_of_int total /. float_of_int (Array.length reps) else 0.0
  in
  {
    name;
    host_seconds;
    events;
    events_per_sec = per_sec events;
    bytes_hashed;
    hashed_mb_per_sec = per_sec bytes_hashed /. 1e6;
    virtual_tps = outcome.Scenario.tps;
    completed = outcome.Scenario.completed;
    checkpoint_count;
    undo_snapshots;
    bytes_copied;
    bytes_copied_per_checkpoint;
    deep_copy_bytes_per_checkpoint;
    pages_read;
    rows_scanned;
    speculative_executions = outcome.Scenario.speculative_execs;
    rollbacks = outcome.Scenario.rollbacks;
    tentative_completed = outcome.Scenario.tentative_completed;
    core_utilization;
    p50_latency = outcome.Scenario.p50_latency;
    p95_latency = outcome.Scenario.p95_latency;
    p99_latency = outcome.Scenario.p99_latency;
    shed = outcome.Scenario.shed;
    gw_evictions = outcome.Scenario.gw_evictions;
    gw_queue_peak = outcome.Scenario.gw_queue_peak;
    replica_queue_peak = outcome.Scenario.replica_queue_peak;
    ro_cache_evictions = outcome.Scenario.ro_cache_evictions;
    sessions = 0;
    arrivals = 0;
    offered_load = 0.0;
    flushes_size = 0;
    flushes_deadline = 0;
    reply_cache_hits = 0;
    events_per_request =
      (if outcome.Scenario.completed > 0 then
         float_of_int events /. float_of_int outcome.Scenario.completed
       else 0.0);
    alloc_per_request =
      (if outcome.Scenario.completed > 0 then alloc /. float_of_int outcome.Scenario.completed
       else 0.0);
    shards = outcome.Scenario.shards;
    shard_tps = outcome.Scenario.shard_tps;
    shard_queue_peak = outcome.Scenario.shard_queue_peak;
    cross_commits = outcome.Scenario.cross_shard_commits;
    cross_aborts = outcome.Scenario.cross_shard_aborts;
    cross_timeouts = 0;
    demotion_transfers = outcome.Scenario.demotion_transfers;
    rejoin_transfers = outcome.Scenario.rejoin_transfers;
    transfer_pages_fetched = outcome.Scenario.transfer_pages_fetched;
    transfer_pages_full = outcome.Scenario.transfer_pages_full;
    crashes = 0;
    restarts = 0;
    availability = 0.0;
    mean_recovery = 0.0;
    max_recovery = 0.0;
  }

(* Open-loop front-door workload: same host-cost envelope, but driven by
   the arrival-process generator through the gateway, so the latency
   distribution and the gateway telemetry are the generator's view. *)
let measure_openloop ~name spec =
  let (outcome, cluster, _door, _gen), host_seconds, per_sec, bytes_hashed, bytes_copied, _alloc =
    enveloped (fun () -> Openloop.run spec)
  in
  let events = Simnet.Engine.events (Pbft.Cluster.engine cluster) in
  let checkpoint_count, undo_snapshots, bytes_copied_per_checkpoint, core_utilization =
    replica_totals (Pbft.Cluster.replicas cluster) ~bytes_copied
  in
  let base = outcome.Openloop.base in
  {
    name;
    host_seconds;
    events;
    events_per_sec = per_sec events;
    bytes_hashed;
    hashed_mb_per_sec = per_sec bytes_hashed /. 1e6;
    virtual_tps = base.Scenario.tps;
    completed = base.Scenario.completed;
    checkpoint_count;
    undo_snapshots;
    bytes_copied;
    bytes_copied_per_checkpoint;
    deep_copy_bytes_per_checkpoint = 0.0;
    pages_read = 0;
    rows_scanned = 0;
    speculative_executions = base.Scenario.speculative_execs;
    rollbacks = base.Scenario.rollbacks;
    tentative_completed = base.Scenario.tentative_completed;
    core_utilization;
    p50_latency = base.Scenario.p50_latency;
    p95_latency = base.Scenario.p95_latency;
    p99_latency = base.Scenario.p99_latency;
    shed = base.Scenario.shed;
    gw_evictions = base.Scenario.gw_evictions;
    gw_queue_peak = base.Scenario.gw_queue_peak;
    replica_queue_peak = base.Scenario.replica_queue_peak;
    ro_cache_evictions = base.Scenario.ro_cache_evictions;
    sessions = outcome.Openloop.sessions;
    arrivals = outcome.Openloop.arrivals;
    offered_load = outcome.Openloop.offered;
    flushes_size = outcome.Openloop.flushes_size;
    flushes_deadline = outcome.Openloop.flushes_deadline;
    reply_cache_hits = outcome.Openloop.reply_cache_hits;
    events_per_request = outcome.Openloop.events_per_request;
    alloc_per_request = outcome.Openloop.alloc_per_request;
    shards = base.Scenario.shards;
    shard_tps = base.Scenario.shard_tps;
    shard_queue_peak = base.Scenario.shard_queue_peak;
    cross_commits = base.Scenario.cross_shard_commits;
    cross_aborts = base.Scenario.cross_shard_aborts;
    cross_timeouts = 0;
    demotion_transfers = base.Scenario.demotion_transfers;
    rejoin_transfers = base.Scenario.rejoin_transfers;
    transfer_pages_fetched = base.Scenario.transfer_pages_fetched;
    transfer_pages_full = base.Scenario.transfer_pages_full;
    crashes = 0;
    restarts = 0;
    availability = 0.0;
    mean_recovery = 0.0;
    max_recovery = 0.0;
  }

(* Sharded deployment (PR 8): the host-cost envelope around a
   Shards.run, with the per-shard telemetry block live. *)
let measure_shards ~name spec =
  let (outcome, d), host_seconds, per_sec, bytes_hashed, bytes_copied, alloc =
    enveloped (fun () -> Shards.run spec)
  in
  let events = Simnet.Engine.events (Shards.engine d) in
  let all_reps =
    Array.concat
      (List.init spec.Shards.shards (fun s -> Pbft.Cluster.replicas (Shards.cluster d s)))
  in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 all_reps in
  let checkpoint_count, undo_snapshots, bytes_copied_per_checkpoint, core_utilization =
    replica_totals all_reps ~bytes_copied
  in
  {
    name;
    host_seconds;
    events;
    events_per_sec = per_sec events;
    bytes_hashed;
    hashed_mb_per_sec = per_sec bytes_hashed /. 1e6;
    virtual_tps = outcome.Shards.so_vtps;
    completed = outcome.Shards.so_completed;
    checkpoint_count;
    undo_snapshots;
    bytes_copied;
    bytes_copied_per_checkpoint;
    deep_copy_bytes_per_checkpoint = 0.0;
    pages_read = 0;
    rows_scanned = 0;
    speculative_executions = sum Pbft.Replica.speculative_execs;
    rollbacks = sum Pbft.Replica.rollbacks;
    tentative_completed = 0;
    core_utilization;
    p50_latency = outcome.Shards.so_p50;
    p95_latency = outcome.Shards.so_p95;
    p99_latency = outcome.Shards.so_p99;
    shed = outcome.Shards.so_shed;
    gw_evictions = Webgate.Frontdoor.session_evictions (Shards.door d);
    gw_queue_peak = Array.fold_left Int.max 0 outcome.Shards.so_shard_queue_peak;
    replica_queue_peak =
      Array.fold_left
        (fun acc r -> Int.max acc (Simnet.Cpu.peak_queue_length (Pbft.Replica.cpu r)))
        0 all_reps;
    ro_cache_evictions = sum Pbft.Replica.ro_reply_evictions;
    sessions = spec.Shards.sessions;
    arrivals = 0;
    offered_load = 0.0;
    flushes_size = outcome.Shards.so_flushes_size;
    flushes_deadline = outcome.Shards.so_flushes_deadline;
    reply_cache_hits = outcome.Shards.so_cache_hits;
    events_per_request =
      (if outcome.Shards.so_completed > 0 then
         float_of_int events /. float_of_int outcome.Shards.so_completed
       else 0.0);
    alloc_per_request =
      (if outcome.Shards.so_completed > 0 then
         alloc /. float_of_int outcome.Shards.so_completed
       else 0.0);
    shards = spec.Shards.shards;
    shard_tps = outcome.Shards.so_shard_tps;
    shard_queue_peak = outcome.Shards.so_shard_queue_peak;
    cross_commits = outcome.Shards.so_cross_commits;
    cross_aborts = outcome.Shards.so_cross_aborts;
    cross_timeouts = outcome.Shards.so_cross_timeouts;
    demotion_transfers = sum Pbft.Replica.demotion_transfers;
    rejoin_transfers = sum Pbft.Replica.rejoin_transfers;
    transfer_pages_fetched = sum Pbft.Replica.transfer_pages_fetched;
    transfer_pages_full = sum Pbft.Replica.transfer_pages_full;
    crashes = 0;
    restarts = 0;
    availability = 0.0;
    mean_recovery = 0.0;
    max_recovery = 0.0;
  }

(* Churn workload (PR 10): the host-cost envelope around a long-horizon
   crash/repair plan. Latency and gateway telemetry are not meaningful
   here (closed-loop light load); the transfer and churn blocks are. *)
let measure_churn ~name spec =
  let o, host_seconds, per_sec, bytes_hashed, bytes_copied, _alloc =
    enveloped (fun () -> Churn.run spec)
  in
  {
    name;
    host_seconds;
    events = o.Churn.ch_events;
    events_per_sec = per_sec o.Churn.ch_events;
    bytes_hashed;
    hashed_mb_per_sec = per_sec bytes_hashed /. 1e6;
    virtual_tps = o.Churn.ch_tps;
    completed = o.Churn.ch_completed;
    checkpoint_count = 0;
    undo_snapshots = 0;
    bytes_copied;
    bytes_copied_per_checkpoint = 0.0;
    deep_copy_bytes_per_checkpoint = 0.0;
    pages_read = 0;
    rows_scanned = 0;
    speculative_executions = 0;
    rollbacks = 0;
    tentative_completed = 0;
    core_utilization = 0.0;
    p50_latency = 0.0;
    p95_latency = 0.0;
    p99_latency = 0.0;
    shed = 0;
    gw_evictions = 0;
    gw_queue_peak = 0;
    replica_queue_peak = 0;
    ro_cache_evictions = 0;
    sessions = 0;
    arrivals = 0;
    offered_load = 0.0;
    flushes_size = 0;
    flushes_deadline = 0;
    reply_cache_hits = 0;
    events_per_request =
      (if o.Churn.ch_completed > 0 then
         float_of_int o.Churn.ch_events /. float_of_int o.Churn.ch_completed
       else 0.0);
    alloc_per_request = 0.0;
    shards = 1;
    shard_tps = [| o.Churn.ch_tps |];
    shard_queue_peak = [| 0 |];
    cross_commits = 0;
    cross_aborts = 0;
    cross_timeouts = 0;
    demotion_transfers = o.Churn.ch_demotion_transfers;
    rejoin_transfers = o.Churn.ch_rejoin_transfers;
    transfer_pages_fetched = o.Churn.ch_pages_fetched;
    transfer_pages_full = o.Churn.ch_pages_full;
    crashes = o.Churn.ch_crashes;
    restarts = o.Churn.ch_restarts;
    availability = o.Churn.ch_availability;
    mean_recovery = o.Churn.ch_mean_recovery;
    max_recovery = o.Churn.ch_max_recovery;
  },
  o

let base_cfg () = Pbft.Config.default ~f:1

let null_spec ~seed ~duration cfg =
  { (Scenario.default_spec cfg) with Scenario.seed; duration }

let row_spec ~seed ~duration (dynamic, macs, allbig, batching) =
  Experiments.with_flags ~dynamic ~macs ~allbig ~batching (base_cfg ())
  |> null_spec ~seed ~duration

let table1_workloads ?(seed = 1) ?(duration = 1.5) () =
  List.map
    (fun (name, _paper, flags) ->
      measure ~name:("table1:" ^ name) (row_spec ~seed ~duration flags))
    Experiments.table1_rows

let default_flags = (false, true, true, true)

let table1_default ?(seed = 1) ?(duration = 1.5) () =
  measure ~name:"table1:sta_mac_allbig_batch" (row_spec ~seed ~duration default_flags)

let sql_workload ?(seed = 1) ?(duration = 1.5) () =
  let cfg =
    Experiments.with_flags ~dynamic:false ~macs:true ~allbig:true ~batching:true (base_cfg ())
  in
  measure ~name:"sql:insert_acid" (Experiments.sql_spec ~seed ~duration ~acid:true cfg)

let ckpt_sql_large ?(seed = 1) ?(duration = 1.5) () =
  let cfg =
    Experiments.with_flags ~dynamic:false ~macs:true ~allbig:true ~batching:true (base_cfg ())
  in
  measure ~name:"ckpt:sql_large_state" (Experiments.sql_large_state_spec ~seed ~duration cfg)

(* Access-path workloads: the same SELECT stream over the same 1600-row
   table, with and without the secondary index. [pages_read] is the
   number the paper's "real operations" argument turns on: a point probe
   should touch O(log n) pages, a forced scan O(n). *)

let default_cfg () =
  Experiments.with_flags ~dynamic:false ~macs:true ~allbig:true ~batching:true (base_cfg ())

let sql_indexed_point ?(seed = 1) ?(duration = 1.5) () =
  measure ~name:"sql:indexed_point"
    (Experiments.indexed_sql_spec ~seed ~duration ~indexed:true ~range:false (default_cfg ()))

let sql_indexed_range ?(seed = 1) ?(duration = 1.5) () =
  measure ~name:"sql:indexed_range"
    (Experiments.indexed_sql_spec ~seed ~duration ~indexed:true ~range:true (default_cfg ()))

let sql_forced_scan ?(seed = 1) ?(duration = 1.5) () =
  measure ~name:"sql:forced_scan"
    (Experiments.indexed_sql_spec ~seed ~duration ~indexed:false ~range:false (default_cfg ()))

(* Pipelining (PR 6): the same null workload serial and deeply pipelined.
   The serial row doubles as the regression anchor — its config is the
   pinned-digest default — and the deep row carries the >=2x gate
   bench/main.exe enforces. *)

let pipeline_serial ?(seed = 1) ?(duration = 1.5) () =
  measure ~name:"pipeline:serial"
    (Experiments.pipeline_spec ~seed ~duration (Experiments.pipeline_cfg ~depth:1 ~cores:1 ()))

let pipeline_deep ?(seed = 1) ?(duration = 1.5) () =
  measure ~name:"pipeline:depth8_cores4"
    (Experiments.pipeline_spec ~seed ~duration (Experiments.pipeline_cfg ~depth:8 ~cores:4 ()))

let sql_read_mix ?(seed = 1) ?(duration = 1.5) () =
  measure ~name:"sql:read_mix" (Experiments.read_mix_spec ~seed ~duration (default_cfg ()))

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

let trace_digest ?(seed = 1) ?(seconds = 0.3) () =
  let dynamic, macs, allbig, batching = default_flags in
  let cfg = Experiments.with_flags ~dynamic ~macs ~allbig ~batching (base_cfg ()) in
  let spec =
    { (Scenario.default_spec cfg) with Scenario.seed; warmup = 0.1; duration = seconds }
  in
  (* run_cluster disables tracing for speed; the digest needs the full
     message log back on. *)
  let outcome, cluster =
    Scenario.run_cluster
      ~hook:(fun cluster -> Simnet.Trace.set_enabled (Pbft.Cluster.trace cluster) true)
      spec
  in
  digest_trace (Pbft.Cluster.trace cluster) ~completed:outcome.Scenario.completed

(* The front door's equivalence proof: a short seeded open-loop run whose
   bursty arrivals hit both flush triggers, whose queue bound sheds during
   bursts, whose session LRU churns and whose retransmissions (after the
   occasional lost reply) exercise the reply cache. Any behavioural
   change to the door moves this digest. *)
let gateway_trace_digest ?(seed = 1) ?(seconds = 0.3) () =
  let base = Openloop.default_spec (Pbft.Config.default ~f:1) in
  let spec =
    {
      base with
      Openloop.seed;
      sessions = 300;
      arrival = Openloop.Bursty { base = 300.0; burst = 18000.0; period = 0.1; duty = 0.3 };
      profile = { Simnet.Net.lan_profile with Simnet.Net.loss = 0.002 };
      warmup = 0.05;
      duration = seconds;
      op_bytes = 128;
      gen_conns = 8;
      retransmit = Some 0.02;
      gateway =
        {
          Webgate.Frontdoor.connections = 2;
          flush_bytes = 1024;
          flush_deadline = 0.003;
          max_queue = 32;
          max_sessions = 256;
        };
    }
  in
  let outcome, cluster, _door, _gen =
    Openloop.run
      ~hook:(fun cluster _door -> Simnet.Trace.set_enabled (Pbft.Cluster.trace cluster) true)
      spec
  in
  digest_trace (Pbft.Cluster.trace cluster) ~completed:outcome.Openloop.base.Scenario.completed

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
