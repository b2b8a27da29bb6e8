(* Open-loop load at scale (§4-style overload study).

   A closed-loop driver — N clients, each waiting for its reply before
   sending again — can never push the system past saturation: offered
   load self-limits to completion rate. The open-loop generator breaks
   that feedback. Arrivals come from a stochastic process on the virtual
   clock (Poisson, bursty square-wave, or diurnal sinusoid) regardless
   of how many requests are still in flight, so overload is real:
   queues grow, deadlines pass, and the gateway's admission control has
   something to do.

   Sessions are deliberately lightweight: a record and a sequence
   number, multiplexed over a small set of shared virtual connections
   (source addresses) — tens of thousands of sessions cost what their
   in-flight requests cost, not a NIC and a keypair each. The real PBFT
   protocol work happens in the front door's upstream connection pool. *)

type arrival =
  | Poisson of float  (** constant mean arrival rate, requests/s *)
  | Bursty of { base : float; burst : float; period : float; duty : float }
      (** square wave: [burst] req/s for [duty]·[period] seconds, then
          [base] req/s for the rest of each period *)
  | Diurnal of { mean : float; amplitude : float; period : float }
      (** sinusoid: mean·(1 + amplitude·sin(2πt/period)) *)

let rate_at arrival t =
  match arrival with
  | Poisson r -> r
  | Bursty { base; burst; period; duty } ->
    if Float.rem t period < duty *. period then burst else base
  | Diurnal { mean; amplitude; period } ->
    mean *. (1.0 +. (amplitude *. sin (2.0 *. Float.pi *. t /. period)))

(* Mean offered rate over a window, for reporting. *)
let mean_rate arrival =
  match arrival with
  | Poisson r -> r
  | Bursty { base; burst; duty; _ } -> (burst *. duty) +. (base *. (1.0 -. duty))
  | Diurnal { mean; _ } -> mean

type spec = {
  cfg : Pbft.Config.t;
  seed : int;
  sessions : int;
  arrival : arrival;
  service : Pbft.Service.t;
  profile : Simnet.Net.profile;
  warmup : float;
  duration : float;
  op_bytes : int;
  gen_conns : int;  (** shared virtual connections the sessions multiplex over *)
  gateway : Webgate.Frontdoor.config;
  retransmit : float option;
      (** per-request retransmit interval; [None] = fire and forget (the
          open-loop default — lost work shows up as incompletions) *)
}

let session_addr_base = 100_000

let default_spec cfg =
  {
    cfg;
    seed = 1;
    sessions = 10_000;
    arrival = Poisson 2_000.0;
    service = Pbft.Service.null ();
    profile = Simnet.Net.lan_profile;
    warmup = 0.5;
    duration = 2.0;
    op_bytes = 256;
    gen_conns = 64;
    gateway =
      {
        Webgate.Frontdoor.connections = 16;
        flush_bytes = 8 * 1024;
        flush_deadline = 0.005;
        max_queue = 4096;
        max_sessions = 10_000;
      };
    retransmit = None;
  }

(* --- the generator --- *)

type gen = {
  engine : Simnet.Engine.t;
  net : Simnet.Net.t;
  rng : Util.Rng.t;
  spec : spec;
  outstanding : (int * int, float) Hashtbl.t;  (** (session, req_id) -> send time *)
  next_req : int array;  (** per-session request-id counter *)
  latency : Util.Stats.t;
  mutable record : bool;  (** false during warmup *)
  mutable stopped : bool;
  mutable n_arrivals : int;
  mutable n_completed : int;
  mutable n_shed : int;
  mutable n_retransmissions : int;
  mutable next_session : int;
}

let conn_addr g i = session_addr_base + (i mod g.spec.gen_conns)

let on_reply g wire =
  match Webgate.Frontdoor.decode_reply wire with
  | None -> ()
  | Some (status, session, req_id, _result) -> (
    match Hashtbl.find_opt g.outstanding (session, req_id) with
    | None -> ()  (* duplicate reply (retransmit race) *)
    | Some sent ->
      Hashtbl.remove g.outstanding (session, req_id);
      (match status with
      | Webgate.Frontdoor.Done ->
        g.n_completed <- g.n_completed + 1;
        if g.record then Util.Stats.add g.latency (Simnet.Engine.now g.engine -. sent)
      | Webgate.Frontdoor.Shed -> g.n_shed <- g.n_shed + 1))

let send_request g ~session ~req_id ~op =
  let frame = Webgate.Frontdoor.encode_request ~session ~req_id ~op in
  Simnet.Net.send g.net ~label:"gw-request" ~src:(conn_addr g session)
    ~dst:Webgate.Frontdoor.frontdoor_addr frame

let rec arm_retransmit g ~session ~req_id ~op delay =
  ignore
    (Simnet.Engine.timer g.engine ~delay (fun () ->
         if (not g.stopped) && Hashtbl.mem g.outstanding (session, req_id) then begin
           g.n_retransmissions <- g.n_retransmissions + 1;
           send_request g ~session ~req_id ~op;
           arm_retransmit g ~session ~req_id ~op delay
         end))

let fire g =
  let session = g.next_session in
  g.next_session <- (g.next_session + 1) mod g.spec.sessions;
  g.next_req.(session) <- g.next_req.(session) + 1;
  let req_id = g.next_req.(session) in
  let op = String.make g.spec.op_bytes (Char.chr (65 + (session mod 26))) in
  g.n_arrivals <- g.n_arrivals + 1;
  Hashtbl.replace g.outstanding (session, req_id) (Simnet.Engine.now g.engine);
  send_request g ~session ~req_id ~op;
  match g.spec.retransmit with
  | Some delay -> arm_retransmit g ~session ~req_id ~op delay
  | None -> ()

(* Inter-arrival draw from the instantaneous rate: a piecewise
   approximation of the non-homogeneous process that is exact for
   Poisson and faithful to the shape for bursty/diurnal. *)
let rec schedule_next g =
  if not g.stopped then begin
    let rate = Float.max 1e-6 (rate_at g.spec.arrival (Simnet.Engine.now g.engine)) in
    let dt = Util.Rng.exponential g.rng ~mean:(1.0 /. rate) in
    Simnet.Engine.schedule g.engine ~delay:dt (fun () ->
        if not g.stopped then begin
          fire g;
          schedule_next g
        end)
  end

let create_gen ~engine ~net spec =
  let g =
    {
      engine;
      net;
      rng = Util.Rng.split (Simnet.Engine.rng engine);
      spec;
      outstanding = Hashtbl.create 4096;
      next_req = Array.make spec.sessions 0;
      latency = Util.Stats.create ();
      record = false;
      stopped = false;
      n_arrivals = 0;
      n_completed = 0;
      n_shed = 0;
      n_retransmissions = 0;
      next_session = 0;
    }
  in
  for i = 0 to spec.gen_conns - 1 do
    Simnet.Net.register net (session_addr_base + i) (fun ~src:_ wire -> on_reply g wire)
  done;
  schedule_next g;
  g

(* --- outcome --- *)

type outcome = {
  base : Scenario.outcome;
  offered : float;  (** mean offered load, requests/s *)
  arrivals : int;
  sessions : int;
  gen_shed : int;  (** shed replies observed by the generator *)
  gen_retransmissions : int;
  reply_cache_hits : int;
  flushes_size : int;
  flushes_deadline : int;
  live_sessions : int;
  events_per_request : float;  (** simulation events per completed request *)
  alloc_per_request : float;  (** heap bytes allocated per completed request *)
}

let run ?hook spec =
  let cluster =
    Pbft.Cluster.create ~seed:spec.seed ~profile:spec.profile
      ~num_clients:spec.gateway.Webgate.Frontdoor.connections
      ~service:(Webgate.Frontdoor.wrap_service spec.service)
      spec.cfg
  in
  Simnet.Trace.set_enabled (Pbft.Cluster.trace cluster) false;
  let engine = Pbft.Cluster.engine cluster in
  let net = Pbft.Cluster.net cluster in
  let door =
    Webgate.Frontdoor.create ~cfg:spec.gateway ~engine ~net
      ~clients:(Pbft.Cluster.clients cluster) ()
  in
  (match hook with Some h -> h cluster door | None -> ());
  let g = create_gen ~engine ~net spec in
  Pbft.Cluster.run cluster ~seconds:spec.warmup;
  g.record <- true;
  let base_completed = g.n_completed in
  let base_arrivals = g.n_arrivals in
  let base_events = Simnet.Engine.events engine in
  let base_alloc = Gc.allocated_bytes () in
  let measure_start = Simnet.Engine.now engine in
  Pbft.Cluster.run cluster ~seconds:spec.duration;
  g.stopped <- true;
  let span = Simnet.Engine.now engine -. measure_start in
  let completed = g.n_completed - base_completed in
  let arrivals = g.n_arrivals - base_arrivals in
  let events = Simnet.Engine.events engine - base_events in
  let alloc = Gc.allocated_bytes () -. base_alloc in
  let reps = Pbft.Cluster.replicas cluster in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reps in
  let pct p = if Util.Stats.count g.latency > 0 then Util.Stats.percentile g.latency p else 0.0 in
  let tps_value = if span > 0.0 then float_of_int completed /. span else 0.0 in
  let base =
    {
      Scenario.tps = tps_value;
      completed;
      mean_latency = (if Util.Stats.count g.latency > 0 then Util.Stats.mean g.latency else 0.0);
      p50_latency = pct 50.0;
      p95_latency = pct 95.0;
      p99_latency = pct 99.0;
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
      tentative_completed = 0;
      auth_failures = sum Pbft.Replica.auth_failures;
      nondet_rejects = sum Pbft.Replica.nondet_rejects;
      shed = Webgate.Frontdoor.shed door;
      gw_evictions = Webgate.Frontdoor.session_evictions door;
      gw_queue_peak = Webgate.Frontdoor.queue_peak door;
      replica_queue_peak =
        Array.fold_left
          (fun acc r -> Int.max acc (Simnet.Cpu.peak_queue_length (Pbft.Replica.cpu r)))
          0 reps;
      ro_cache_evictions = sum Pbft.Replica.ro_reply_evictions;
      shards = 1;
      shard_tps = [| tps_value |];
      shard_queue_peak = [| Webgate.Frontdoor.queue_peak door |];
      cross_shard_commits = 0;
      cross_shard_aborts = 0;
    }
  in
  let outcome =
    {
      base;
      offered = mean_rate spec.arrival;
      arrivals;
      sessions = spec.sessions;
      gen_shed = g.n_shed;
      gen_retransmissions = g.n_retransmissions;
      reply_cache_hits = Webgate.Frontdoor.reply_cache_hits door;
      flushes_size = Webgate.Frontdoor.flushes_size door;
      flushes_deadline = Webgate.Frontdoor.flushes_deadline door;
      live_sessions = Webgate.Frontdoor.live_sessions door;
      events_per_request =
        (if completed > 0 then float_of_int events /. float_of_int completed else 0.0);
      alloc_per_request = (if completed > 0 then alloc /. float_of_int completed else 0.0);
    }
  in
  ignore (Simnet.Net.drain_drops net);
  (outcome, cluster, door, g)

let stop_generator g = g.stopped <- true
