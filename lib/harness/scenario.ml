type spec = {
  cfg : Pbft.Config.t;
  seed : int;
  num_clients : int;
  service : Pbft.Service.t;
  profile : Simnet.Net.profile;
  warmup : float;
  duration : float;
  op : client:int -> seq:int -> string;
  readonly : bool;
  think_time : float;
}

let default_spec cfg =
  {
    cfg;
    seed = 1;
    num_clients = 12;
    service = Pbft.Service.null ();
    profile = Simnet.Net.lan_profile;
    warmup = 0.5;
    duration = 2.0;
    op = (fun ~client:_ ~seq:_ -> String.make 1024 'q');
    readonly = false;
    think_time = 0.0;
  }

(* Closed loop: each client has at most one request outstanding. Bodies
   are retired with their checkpoint and aged out [log_window] executed
   sequence numbers after arrival, checked as checkpoints go stable, so
   a body outlives its arrival by at most the log window plus one
   checkpoint interval of sequence numbers. *)
let retained_bound spec : Pbft.Replica.retained =
  let window = spec.cfg.Pbft.Config.log_window in
  let clients = spec.num_clients in
  let per_request = (window + spec.cfg.Pbft.Config.checkpoint_interval) * clients in
  {
    bodies = per_request;
    body_arrivals = per_request;
    pending = clients;
    in_flight = clients;
    waiting = clients;
    entry_requests = window;
    body_requests = per_request;
    log_slots = window;
    ckpt_votes = (window / spec.cfg.Pbft.Config.checkpoint_interval) + 1;
  }

type outcome = {
  tps : float;
  completed : int;
  mean_latency : float;
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  retransmissions : int;
  view_changes : int;
  demotion_transfers : int;
  rejoin_transfers : int;
  transfer_pages_fetched : int;
  transfer_pages_full : int;
  demotions : int;
  rollbacks : int;
  speculative_execs : int;
  tentative_completed : int;
  auth_failures : int;
  nondet_rejects : int;
  shed : int;
  gw_evictions : int;
  gw_queue_peak : int;
  replica_queue_peak : int;
  ro_cache_evictions : int;
  (* Sharded-deployment telemetry (PR 8): single-group drivers report
     themselves as one shard with no cross-shard traffic. *)
  shards : int;
  shard_tps : float array;
  shard_queue_peak : int array;
  cross_shard_commits : int;
  cross_shard_aborts : int;
}

let join_all cluster =
  (* Dynamic mode: every client performs the two-phase join before the
     workload begins. *)
  let clients = Pbft.Cluster.clients cluster in
  let joined = ref 0 in
  Array.iteri
    (fun i cl ->
      Pbft.Client.join cl
        ~idbuf:(Printf.sprintf "user%d:password%d" (i + 1) (i + 1))
        (function
          | Some _ -> incr joined
          | None -> ()))
    clients;
  let deadline = Simnet.Engine.now (Pbft.Cluster.engine cluster) +. 30.0 in
  while
    !joined < Array.length clients && Simnet.Engine.now (Pbft.Cluster.engine cluster) < deadline
  do
    Simnet.Engine.run
      ~until:(Simnet.Engine.now (Pbft.Cluster.engine cluster) +. 0.1)
      (Pbft.Cluster.engine cluster)
  done;
  if !joined < Array.length clients then failwith "Scenario: dynamic join did not complete"

let run_cluster ?hook spec =
  let cluster =
    Pbft.Cluster.create ~seed:spec.seed ~profile:spec.profile ~num_clients:spec.num_clients
      ~service:spec.service spec.cfg
  in
  Simnet.Trace.set_enabled (Pbft.Cluster.trace cluster) false;
  (match hook with Some h -> h cluster | None -> ());
  if spec.cfg.Pbft.Config.dynamic_clients then join_all cluster;
  let engine = Pbft.Cluster.engine cluster in
  let stop = ref false in
  let classify = spec.service.Pbft.Service.classify_readonly in
  let drive i cl =
    let seq = ref 0 in
    let rec next () =
      if not !stop then begin
        incr seq;
        let op = spec.op ~client:i ~seq:!seq in
        (* Per-operation auto-classification: ops the service proves
           read-only (e.g. planner-classified SELECTs) ride the fast path
           even in a mixed workload where [spec.readonly] must stay
           false. *)
        let readonly = spec.readonly || classify op in
        Pbft.Client.invoke cl ~readonly op (fun _ ->
            if spec.think_time > 0.0 then Simnet.Engine.schedule engine ~delay:spec.think_time next
            else next ())
      end
    in
    next ()
  in
  Array.iteri drive (Pbft.Cluster.clients cluster);
  Pbft.Cluster.run cluster ~seconds:spec.warmup;
  let base_completed = Pbft.Cluster.total_completed cluster in
  let sum_tentative () =
    Array.fold_left
      (fun acc cl -> acc + Pbft.Client.tentative_completed cl)
      0 (Pbft.Cluster.clients cluster)
  in
  let base_tentative = sum_tentative () in
  let measure_start = Simnet.Engine.now engine in
  Pbft.Cluster.run cluster ~seconds:spec.duration;
  let measured = Pbft.Cluster.total_completed cluster - base_completed in
  stop := true;
  (* Latency sample: per-client means over the whole run (warmup
     included); at steady state the distributions coincide. *)
  let all = Util.Stats.create () in
  Array.iter
    (fun cl ->
      let s = Pbft.Client.latency_stats cl in
      if Util.Stats.count s > 0 then Util.Stats.add all (Util.Stats.mean s))
    (Pbft.Cluster.clients cluster);
  let span = Simnet.Engine.now engine -. measure_start in
  let reps = Pbft.Cluster.replicas cluster in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reps in
  let tps_value = if span > 0.0 then float_of_int measured /. span else 0.0 in
  let outcome =
    {
      tps = tps_value;
      completed = measured;
      mean_latency = (if Util.Stats.count all > 0 then Util.Stats.mean all else 0.0);
      p50_latency =
        (let s = Pbft.Client.latency_stats (Pbft.Cluster.client cluster 0) in
         if Util.Stats.count s > 0 then Util.Stats.percentile s 50.0 else 0.0);
      p95_latency =
        (let s = Pbft.Client.latency_stats (Pbft.Cluster.client cluster 0) in
         if Util.Stats.count s > 0 then Util.Stats.percentile s 95.0 else 0.0);
      p99_latency =
        (let s = Pbft.Client.latency_stats (Pbft.Cluster.client cluster 0) in
         if Util.Stats.count s > 0 then Util.Stats.percentile s 99.0 else 0.0);
      retransmissions =
        Array.fold_left
          (fun acc cl -> acc + Pbft.Client.retransmissions cl)
          0 (Pbft.Cluster.clients cluster);
      view_changes = sum Pbft.Replica.view_changes;
      demotion_transfers = sum Pbft.Replica.demotion_transfers;
      rejoin_transfers = sum Pbft.Replica.rejoin_transfers;
      transfer_pages_fetched = sum Pbft.Replica.transfer_pages_fetched;
      transfer_pages_full = sum Pbft.Replica.transfer_pages_full;
      demotions = sum Pbft.Replica.demotions;
      rollbacks = sum Pbft.Replica.rollbacks;
      speculative_execs = sum Pbft.Replica.speculative_execs;
      tentative_completed = sum_tentative () - base_tentative;
      auth_failures = sum Pbft.Replica.auth_failures;
      nondet_rejects = sum Pbft.Replica.nondet_rejects;
      (* Gateway counters are zero in a direct closed-loop run; the
         open-loop front-door runner fills them in. *)
      shed = 0;
      gw_evictions = 0;
      gw_queue_peak = 0;
      replica_queue_peak =
        Array.fold_left
          (fun acc r -> Int.max acc (Simnet.Cpu.peak_queue_length (Pbft.Replica.cpu r)))
          0 reps;
      ro_cache_evictions = sum Pbft.Replica.ro_reply_evictions;
      shards = 1;
      shard_tps = [| tps_value |];
      shard_queue_peak = [| 0 |];
      cross_shard_commits = 0;
      cross_shard_aborts = 0;
    }
  in
  (* Teardown: one-shot drop predicates armed by the hook but never
     matched must not leak into whatever runs on this cluster next. *)
  ignore (Simnet.Net.drain_drops (Pbft.Cluster.net cluster));
  (outcome, cluster)

let run ?hook spec = fst (run_cluster ?hook spec)
