(* One deployment, one run. A spec names the groups, the door, the load,
   the phases and a fault plan; [run] builds it and drives it the way the
   paper's test controller did: warm up, measure, stop the load, drain,
   read the counters. *)

type arrival =
  | Poisson of float
  | Bursty of { base : float; burst : float; period : float; duty : float }
  | Diurnal of { mean : float; amplitude : float; period : float }

let rate_at arrival t =
  match arrival with
  | Poisson r -> r
  | Bursty { base; burst; period; duty } ->
    if Float.rem t period < duty *. period then burst else base
  | Diurnal { mean; amplitude; period } ->
    mean *. (1.0 +. (amplitude *. sin (2.0 *. Float.pi *. t /. period)))

let mean_rate arrival =
  match arrival with
  | Poisson r -> r
  | Bursty { base; burst; duty; _ } -> (burst *. duty) +. (base *. (1.0 -. duty))
  | Diurnal { mean; _ } -> mean

type groups =
  | Service of Pbft.Service.t
  | Sharded of { topology : Relsql.Shard.topology; service : int -> Pbft.Service.t; certs : bool }

type load =
  | Clients of {
      clients : int;
      op : client:int -> seq:int -> string;
      think : float;
    }
  | Sessions of { sessions : int; op : client:int -> seq:int -> string }
  | Arrivals of {
      sessions : int;
      arrival : arrival;
      op_bytes : int;
      conns : int;
      retransmit : float option;
    }

type target = Replica of int | Primary of int

type action =
  | Adversary of int * Pbft.Adversary.behavior
  | Crash of target * float
  | Restart of int
  | Drop of string
  | Heal
  | Drop_next of (src:int -> dst:int -> label:string -> bool)

type spec = {
  cfg : Pbft.Config.t;
  seed : int;
  profile : Simnet.Net.profile;
  groups : groups;
  door : Webgate.Frontdoor.config option;
  load : load;
  warmup : float;
  duration : float;
  drain : float;
  plan : (float * action) list;
  bucket : float;
  trace : bool;
}

let clients ?(clients = 12) ?(think = 0.0) op = Clients { clients; op; think }

let closed cfg =
  {
    cfg;
    seed = 1;
    profile = Simnet.Net.lan_profile;
    groups = Service (Pbft.Service.null ());
    door = None;
    load = clients (fun ~client:_ ~seq:_ -> String.make 1024 'q');
    warmup = 0.5;
    duration = 2.0;
    drain = 0.0;
    plan = [];
    bucket = 0.0;
    trace = false;
  }

let rotation ~n ~start ~stop ~period ~downtime ~primary_every =
  let rec go k =
    let t = start +. (period *. float_of_int (k + 1)) in
    if t +. downtime +. (3.0 *. period /. 4.0) > stop then []
    else
      let after_primary =
        if primary_every > 0 && (k + 1) mod primary_every = 0 then 0 else 1 + (k mod (n - 1))
      in
      (t, Crash (Primary after_primary, downtime)) :: go (k + 1)
  in
  go 0

(* Closed loop: each client has at most one request outstanding. Bodies
   are retired with their checkpoint and aged out [log_window] executed
   sequence numbers after arrival, checked as checkpoints go stable, so
   a body outlives its arrival by at most the log window plus one
   checkpoint interval of sequence numbers. *)
let retained_bound spec : Pbft.Replica.retained =
  let window = spec.cfg.Pbft.Config.log_window in
  let clients =
    match spec.load with
    | Clients { clients; _ } -> clients
    | Sessions { sessions; _ } | Arrivals { sessions; _ } -> sessions
  in
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

(* --- deployments --- *)

type deployment = {
  d_engine : Simnet.Engine.t;
  d_edge : Simnet.Net.t;
  d_clusters : Pbft.Cluster.t array;
  d_door : Webgate.Frontdoor.t option;
  d_topology : Relsql.Shard.topology;
  mutable d_retired : Pbft.Replica.t list;
  mutable d_rpc_seq : int;
}

let engine d = d.d_engine
let cluster d s = d.d_clusters.(s)
let door d = d.d_door
let edge d = d.d_edge
let topology d = d.d_topology
let retired d = d.d_retired
let live d = Array.to_list (Pbft.Cluster.replicas d.d_clusters.(0))

let door_config spec =
  match spec.door with
  | Some cfg -> cfg
  | None -> invalid_arg "Run: this deployment needs a door"

let build_service spec service =
  let num_clients =
    match (spec.load, spec.door) with
    | Clients { clients; _ }, None -> clients
    | Clients _, Some _ -> invalid_arg "Run: closed-loop clients bypass the door"
    | (Sessions _ | Arrivals _), _ -> (door_config spec).Webgate.Frontdoor.connections
  in
  let service =
    if Option.is_some spec.door then Webgate.Frontdoor.wrap_service service else service
  in
  let c =
    Pbft.Cluster.create ~seed:spec.seed ~profile:spec.profile ~num_clients ~service spec.cfg
  in
  Simnet.Trace.set_enabled (Pbft.Cluster.trace c) spec.trace;
  let engine = Pbft.Cluster.engine c and net = Pbft.Cluster.net c in
  let door =
    Option.map
      (fun cfg -> Webgate.Frontdoor.create ~cfg ~engine ~net ~clients:(Pbft.Cluster.clients c) ())
      spec.door
  in
  {
    d_engine = engine;
    d_edge = net;
    d_clusters = [| c |];
    d_door = door;
    d_topology = Relsql.Shard.topology ~shards:1 [];
    d_retired = [];
    d_rpc_seq = 0;
  }

let build_sharded spec ~topology ~service ~certs =
  let door_cfg = door_config spec in
  let pool = door_cfg.Webgate.Frontdoor.connections in
  let engine = Simnet.Engine.create ~seed:spec.seed in
  let edge = Simnet.Net.create engine spec.profile in
  let shards = Relsql.Shard.shards topology in
  (* The per-group threshold publics land here once the clusters exist;
     the 2PC wrappers capture the array and read it at execute time. *)
  let publics = Array.make shards None in
  let verify ~shard ~client ~rq_id ~result ~cert =
    if not certs then true
    else
      match publics.(shard) with
      | Some pk -> Pbft.Certificate.verify pk ~client ~rq_id ~result cert
      | None -> false
  in
  let wrapped shard = Webgate.Frontdoor.wrap_service (Relsql.Twopc.wrap ~verify (service shard)) in
  let clusters =
    Array.init shards (fun s ->
        let net = Simnet.Net.create engine spec.profile in
        let c =
          Pbft.Cluster.create ~num_clients:(pool + 1) ~service:(wrapped s)
            ~threshold_replies:certs ~engine ~net spec.cfg
        in
        Simnet.Trace.set_enabled (Pbft.Cluster.trace c) spec.trace;
        publics.(s) <- Pbft.Cluster.threshold_public c;
        c)
  in
  let lanes =
    Array.map
      (fun c -> (Array.init pool (fun j -> Pbft.Cluster.client c (j + 1)), Pbft.Cluster.client c 0))
      clusters
  in
  (* The coordinator waits 0.4 s for prepare votes; shards agree on a
     2 s prepare deadline. *)
  let door =
    Webgate.Frontdoor.create_sharded ~cfg:door_cfg ~topology ~prepare_timeout:0.4 ~tx_ttl:2.0
      ~classify:(wrapped 0).Pbft.Service.classify_readonly ~engine ~net:edge ~lanes ()
  in
  {
    d_engine = engine;
    d_edge = edge;
    d_clusters = clusters;
    d_door = Some door;
    d_topology = topology;
    d_retired = [];
    d_rpc_seq = 0;
  }

let build spec =
  match spec.groups with
  | Service service -> build_service spec service
  | Sharded { topology; service; certs } -> build_sharded spec ~topology ~service ~certs

let run_for d seconds =
  Simnet.Engine.run ~until:(Simnet.Engine.now d.d_engine +. seconds) d.d_engine

let progress d =
  match d.d_door with
  | Some door -> Webgate.Frontdoor.completed door
  | None -> Pbft.Cluster.total_completed d.d_clusters.(0)

let rpc_addr = 99_990

(* Virtual seconds an [rpc] waits for its reply. *)
let rpc_timeout = 30.0

let rpc d op =
  d.d_rpc_seq <- d.d_rpc_seq + 1;
  let rq_id = d.d_rpc_seq in
  let result = ref None in
  Simnet.Net.register d.d_edge rpc_addr (fun ~src:_ wire ->
      match Webgate.Frontdoor.decode_reply wire with
      | Some (Webgate.Frontdoor.Done, s, rid, res)
        when Int.equal s rpc_addr && Int.equal rid rq_id ->
        (result := Some res)
        [@trustlint.allow
          "harness-side convenience RPC: the result was agreed by the group's \
           PBFT quorum (the door's Pbft.Client accepts f+1 MAC-verified \
           matching replies) and is only handed back to the caller"]
      | Some _ | None -> ());
  let frame = Webgate.Frontdoor.encode_request ~session:rpc_addr ~req_id:rq_id ~op in
  let send () =
    Simnet.Net.send d.d_edge ~label:"rpc" ~src:rpc_addr ~dst:Webgate.Frontdoor.frontdoor_addr
      frame
  in
  send ();
  let deadline = Simnet.Engine.now d.d_engine +. rpc_timeout in
  let last_send = ref (Simnet.Engine.now d.d_engine) in
  while Option.is_none !result && Simnet.Engine.now d.d_engine < deadline do
    run_for d 0.05;
    if Option.is_none !result && Simnet.Engine.now d.d_engine -. !last_send > 0.5 then begin
      send ();
      last_send := Simnet.Engine.now d.d_engine
    end
  done;
  Simnet.Net.unregister d.d_edge rpc_addr;
  match !result with Some r -> r | None -> "error:rpc-timeout"

(* --- safety --- *)

(* Journals list committed (seq, batch_digest) pairs; replicas that
   state-transferred past a stretch leave gaps, so only common sequence
   numbers are compared — disagreement there is a conflicting commit.
   Replicas at different sequence numbers legitimately differ in state;
   the journal check covers their common prefix. *)
let safety replicas =
  let module R = Pbft.Replica in
  let root r = Statemgr.Merkle.root (Statemgr.Merkle.build (R.pages r)) in
  let rec pairs = function [] -> [] | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest in
  let pairs = pairs replicas in
  List.concat_map
    (fun (a, b) ->
      let journal = Hashtbl.of_seq (List.to_seq (R.exec_journal a)) in
      List.filter_map
        (fun (s, d) ->
          match Hashtbl.find_opt journal s with
          | Some d' when not (String.equal d d') ->
            Some
              (Printf.sprintf "replicas %d/%d committed different batches at seq %d" (R.id a)
                 (R.id b) s)
          | Some _ | None -> None)
        (R.exec_journal b))
    pairs
  @ List.filter_map
      (fun (a, b) ->
        if
          R.last_executed a = R.last_executed b
          && not (String.equal (root a) (root b))
        then
          Some
            (Printf.sprintf "replicas %d/%d at seq %d have diverged state" (R.id a) (R.id b)
               (R.last_executed a))
        else None)
      pairs

(* --- results --- *)

type result = {
  deployment : deployment;
  latency : Util.Stats.t;
  opened : int;
  marks : int list;
  failures : string list Lazy.t;
  metrics : Util.Metrics.snapshot;
}

let whole layer name = { Util.Metrics.node = Util.Metrics.run_node; layer; name }
let e2e r name = Util.Metrics.(to_float (find r.metrics ~node:run_node ~layer:"end_to_end" name))

(* Readings of every incarnation's virtual CPU and page region at the
   end of the run: they are state, not counters, so they join the
   registry's snapshot here. *)
let incarnation_readings reps =
  let module R = Pbft.Replica in
  let mean f =
    match reps with
    | [] -> 0.0
    | _ -> List.fold_left (fun acc r -> acc +. f r) 0.0 reps /. float_of_int (List.length reps)
  in
  let bytes r = Statemgr.Pages.allocated_pages (R.pages r) * Statemgr.Pages.page_size (R.pages r) in
  List.map
    (fun r ->
      ( { Util.Metrics.node = R.id r; layer = "simnet"; name = "cpu_queue_peak" },
        Util.Metrics.Peak (Simnet.Cpu.peak_queue_length (R.cpu r)) ))
    reps
  @ [
      ( whole "simnet" "core_utilization",
        Util.Metrics.Real (mean (fun r -> Simnet.Cpu.utilization (R.cpu r) ~since:0.0)) );
      ( whole "statemgr" "allocated_page_bytes",
        Util.Metrics.Real
          (float_of_int (List.fold_left (fun acc r -> acc + bytes r) 0 reps)
          /. float_of_int (Int.max 1 (List.length reps))) );
    ]

let adversaries spec =
  List.filter_map (function _, Adversary (id, _) -> Some id | _ -> None) spec.plan

(* --- loads --- *)

(* A running load: what it has completed, its latency sample once the
   window opens, how many of its replies carried an error, and how to
   stop it. *)
type running = {
  completed : unit -> int;
  open_window : unit -> unit -> Util.Stats.t;
  stop : unit -> unit;
  readings : unit -> (Util.Metrics.key * Util.Metrics.value) list;
      (** the load's own numbers, read when the window closes *)
}

(* Dynamic mode: every client performs the two-phase join before the
   workload begins. *)
let join_all d cluster =
  let clients = Pbft.Cluster.clients cluster in
  let joined = ref 0 in
  Array.iteri
    (fun i cl ->
      Pbft.Client.join cl
        ~idbuf:(Printf.sprintf "user%d:password%d" (i + 1) (i + 1))
        (fun c -> if Option.is_some c then incr joined))
    clients;
  let deadline = Simnet.Engine.now d.d_engine +. 30.0 in
  while !joined < Array.length clients && Simnet.Engine.now d.d_engine < deadline do
    run_for d 0.1
  done;
  if !joined < Array.length clients then failwith "Run: dynamic join did not complete"

(* The samples each client recorded between [open_window] and the call
   it returns: every client's sorted samples now, minus the ones it
   already held. *)
let window_latency clients () =
  let held = Array.map (fun cl -> Util.Stats.samples (Pbft.Client.latency_stats cl)) clients in
  fun () ->
    let lat = Util.Stats.create () in
    Array.iteri
      (fun i cl ->
        let old = held.(i) and j = ref 0 in
        Float.Array.iter
          (fun x ->
            if !j < Float.Array.length old && Float.equal (Float.Array.get old !j) x then incr j
            else Util.Stats.add lat x)
          (Util.Stats.samples (Pbft.Client.latency_stats cl)))
      clients;
    lat

let start_clients d service ~op ~think =
  let cluster = d.d_clusters.(0) in
  if (Pbft.Cluster.config cluster).Pbft.Config.dynamic_clients then join_all d cluster;
  let stop = ref false in
  let classify = service.Pbft.Service.classify_readonly in
  let drive i cl =
    let seq = ref 0 in
    let rec next () =
      if not !stop then begin
        incr seq;
        let op = op ~client:i ~seq:!seq in
        (* Per-operation classification: ops the service proves read-only
           (e.g. planner-classified SELECTs) ride the fast path. *)
        Pbft.Client.invoke cl ~readonly:(classify op) op (fun _ ->
            if think > 0.0 then Simnet.Engine.schedule d.d_engine ~delay:think next else next ())
      end
    in
    next ()
  in
  let clients = Pbft.Cluster.clients cluster in
  Array.iteri drive clients;
  (* Per request only without a door: a door invoke carries a coalesced
     batch of session requests. *)
  let tentative () =
    Array.fold_left (fun acc cl -> acc + Pbft.Client.tentative_completed cl) 0 clients
  in
  let opened = ref 0 in
  {
    completed = (fun () -> Pbft.Cluster.total_completed cluster);
    open_window =
      (fun () ->
        opened := tentative ();
        window_latency clients ());
    stop = (fun () -> stop := true);
    readings =
      (fun () ->
        [ (whole "end_to_end" "tentative_completed", Util.Metrics.Count (tentative () - !opened)) ]);
  }

let session_addr_base = 100_000

type sess = {
  sd_id : int;
  sd_addr : int;
  mutable sd_seq : int;
  mutable sd_op : string;
  mutable sd_timer : Simnet.Engine.timer option;
}

let start_sessions d door ~sessions ~op =
  let stopped = ref false in
  let errors =
    Util.Metrics.counter (Simnet.Engine.metrics d.d_engine) ~node:Util.Metrics.run_node
      ~layer:"load" "errors"
  in
  let count = sessions in
  let sessions =
    Array.init sessions (fun i ->
        {
          sd_id = i + 1;
          sd_addr = session_addr_base + i;
          sd_seq = 0;
          sd_op = "";
          sd_timer = None;
        })
  in
  let cancel s =
    (match s.sd_timer with Some timer -> Simnet.Engine.cancel timer | None -> ());
    s.sd_timer <- None
  in
  let rec send ?(delay = 0.0) s =
    cancel s;
    let fire () =
      if not !stopped then begin
        let frame =
          Webgate.Frontdoor.encode_request ~session:s.sd_id ~req_id:s.sd_seq ~op:s.sd_op
        in
        Simnet.Net.send d.d_edge ~label:"sess" ~src:s.sd_addr
          ~dst:Webgate.Frontdoor.frontdoor_addr frame;
        (* Retransmit until answered: datagrams (and shed retries whose
           backoff frame was lost) must not wedge a closed-loop session. *)
        s.sd_timer <-
          Some
            (Simnet.Engine.timer d.d_engine ~delay:0.25 (fun () ->
                 s.sd_timer <- None;
                 send s))
      end
    in
    if delay > 0.0 then
      s.sd_timer <-
        Some
          (Simnet.Engine.timer d.d_engine ~delay (fun () ->
               s.sd_timer <- None;
               fire ()))
    else fire ()
  in
  let submit s =
    if not !stopped then begin
      s.sd_seq <- s.sd_seq + 1;
      s.sd_op <- op ~client:s.sd_id ~seq:s.sd_seq;
      send s
    end
  in
  Array.iter
    (fun s ->
      Simnet.Net.register d.d_edge s.sd_addr (fun ~src:_ wire ->
          match Webgate.Frontdoor.decode_reply wire with
          | Some (status, sid, rid, result) when Int.equal sid s.sd_id && Int.equal rid s.sd_seq
            -> (
            match status with
            | Webgate.Frontdoor.Done ->
              cancel s;
              if String.starts_with ~prefix:"error:" result then Util.Metrics.incr errors;
              submit s
            | Webgate.Frontdoor.Shed ->
              (* Backpressure: retry the same request after a beat. *)
              send ~delay:2e-3 s)
          | Some _ | None -> ()))
    sessions;
  Array.iter submit sessions;
  {
    completed = (fun () -> Webgate.Frontdoor.completed door);
    open_window = (fun () () -> Webgate.Frontdoor.latency_stats door);
    stop =
      (fun () ->
        stopped := true;
        Array.iter cancel sessions);
    readings = (fun () -> [ (whole "load" "sessions", Util.Metrics.Count count) ]);
  }

(* Open-loop arrivals: sessions are a request counter each, multiplexed
   over [conns] shared source addresses, so tens of thousands of them
   cost what their in-flight requests cost. *)
type gen = {
  g_rng : Util.Rng.t;
  outstanding : (int * int, float) Hashtbl.t;  (** (session, req_id) -> send time *)
  next_req : int array;
  g_latency : Util.Stats.t;
  mutable record : bool;
  mutable stopped : bool;
  mutable n_arrivals : int;
  mutable n_completed : int;
  mutable n_shed : int;
  mutable n_retransmissions : int;
  mutable next_session : int;
}

let start_arrivals d ~sessions ~arrival ~op_bytes ~conns ~retransmit =
  let engine = d.d_engine and net = d.d_edge in
  let g =
    {
      g_rng = Util.Rng.split (Simnet.Engine.rng engine);
      outstanding = Hashtbl.create 4096;
      next_req = Array.make sessions 0;
      g_latency = Util.Stats.create ();
      record = false;
      stopped = false;
      n_arrivals = 0;
      n_completed = 0;
      n_shed = 0;
      n_retransmissions = 0;
      next_session = 0;
    }
  in
  let send ~session ~req_id ~op =
    Simnet.Net.send net ~label:"gw-request"
      ~src:(session_addr_base + (session mod conns))
      ~dst:Webgate.Frontdoor.frontdoor_addr
      (Webgate.Frontdoor.encode_request ~session ~req_id ~op)
  in
  let rec arm_retransmit ~session ~req_id ~op delay =
    ignore
      (Simnet.Engine.timer engine ~delay (fun () ->
           if (not g.stopped) && Hashtbl.mem g.outstanding (session, req_id) then begin
             g.n_retransmissions <- g.n_retransmissions + 1;
             send ~session ~req_id ~op;
             arm_retransmit ~session ~req_id ~op delay
           end))
  in
  let fire () =
    let session = g.next_session in
    g.next_session <- (g.next_session + 1) mod sessions;
    g.next_req.(session) <- g.next_req.(session) + 1;
    let req_id = g.next_req.(session) in
    let op = String.make op_bytes (Char.chr (65 + (session mod 26))) in
    g.n_arrivals <- g.n_arrivals + 1;
    Hashtbl.replace g.outstanding (session, req_id) (Simnet.Engine.now engine);
    send ~session ~req_id ~op;
    Option.iter (arm_retransmit ~session ~req_id ~op) retransmit
  in
  (* Inter-arrival draw from the instantaneous rate: a piecewise
     approximation of the non-homogeneous process that is exact for
     Poisson and faithful to the shape for bursty/diurnal. *)
  let rec schedule_next () =
    if not g.stopped then begin
      let rate = Float.max 1e-6 (rate_at arrival (Simnet.Engine.now engine)) in
      let dt = Util.Rng.exponential g.g_rng ~mean:(1.0 /. rate) in
      Simnet.Engine.schedule engine ~delay:dt (fun () ->
          if not g.stopped then begin
            fire ();
            schedule_next ()
          end)
    end
  in
  let on_reply wire =
    match Webgate.Frontdoor.decode_reply wire with
    | None -> ()
    | Some (status, session, req_id, _result) -> (
      match Hashtbl.find_opt g.outstanding (session, req_id) with
      | None -> ()  (* duplicate reply (retransmit race) *)
      | Some sent -> (
        Hashtbl.remove g.outstanding (session, req_id);
        match status with
        | Webgate.Frontdoor.Done ->
          g.n_completed <- g.n_completed + 1;
          if g.record then Util.Stats.add g.g_latency (Simnet.Engine.now engine -. sent)
        | Webgate.Frontdoor.Shed -> g.n_shed <- g.n_shed + 1))
  in
  for i = 0 to conns - 1 do
    Simnet.Net.register net (session_addr_base + i) (fun ~src:_ wire -> on_reply wire)
  done;
  schedule_next ();
  let base_arrivals = ref 0 in
  {
    completed = (fun () -> g.n_completed);
    open_window =
      (fun () ->
        g.record <- true;
        base_arrivals := g.n_arrivals;
        fun () -> g.g_latency);
    stop = (fun () -> g.stopped <- true);
    readings =
      (fun () ->
        Util.Metrics.
          [
            (whole "load" "sessions", Count sessions);
            (whole "load" "offered_load", Real (mean_rate arrival));
            (whole "load" "arrivals", Count (g.n_arrivals - !base_arrivals));
            (whole "load" "gen_shed", Count g.n_shed);
            (whole "load" "gen_retransmissions", Count g.n_retransmissions);
          ]);
  }

(* --- the run --- *)

let run spec =
  (* Process-wide counters are read around the whole run, set-up
     included, and before anything forces [failures], whose Merkle roots
     hash every page. *)
  let hashed0 = Crypto.Sha256.bytes_hashed () and copied0 = Statemgr.Pages.bytes_copied () in
  let pages0 = Relsql.Database.pages_read_total ()
  and rows0 = Relsql.Database.rows_scanned_total () in
  let alloc0 = Gc.allocated_bytes () in
  let d = build spec in
  let engine = d.d_engine in
  let registry = Simnet.Engine.metrics engine in
  let group = d.d_clusters.(0) in
  let n = spec.cfg.Pbft.Config.n in
  if spec.plan <> [] then List.iter (fun r -> Pbft.Replica.set_record_journal r true) (live d);
  (* The fault plan, armed on the engine before any load starts. *)
  let marks = ref [] and advs = ref [] and incidents = ref [] in
  let churn =
    if List.exists (function _, (Crash _ | Restart _) -> true | _ -> false) spec.plan then
      let counter = Util.Metrics.counter registry ~node:Util.Metrics.run_node ~layer:"churn" in
      Some (counter "crashes", counter "restarts")
    else None
  in
  let tick pick = Option.iter (fun c -> Util.Metrics.incr (pick c)) churn in
  let restart i ~since =
    d.d_retired <- Pbft.Cluster.replica group i :: d.d_retired;
    Pbft.Cluster.restart_replica group i;
    let fresh = Pbft.Cluster.replica group i in
    Pbft.Replica.set_record_journal fresh true;
    incidents := (since, fresh) :: !incidents;
    tick snd
  in
  let net = Pbft.Cluster.net group in
  let apply = function
    | Adversary (id, behavior) ->
      advs :=
        Pbft.Adversary.install ~net ~cfg:spec.cfg (Pbft.Cluster.replica group id) behavior
        :: !advs
    | Crash (target, downtime) ->
      let victim =
        match target with
        | Replica i -> i
        | Primary k ->
          (List.fold_left (fun acc r -> Int.max acc (Pbft.Replica.view r)) 0 (live d) + k) mod n
      in
      let since = Simnet.Engine.now engine in
      Pbft.Cluster.crash_replica group victim;
      tick fst;
      Simnet.Engine.schedule engine ~delay:downtime (fun () ->
          marks := progress d :: !marks;
          restart victim ~since)
    | Restart i -> restart i ~since:(Simnet.Engine.now engine)
    (* One sender-wildcard entry per replica: an exact (src, dst) or
       (src, any) entry is what the link-fault lookup consults — there is
       deliberately no (any, any) catch-all. *)
    | Drop label ->
      for src = 0 to n - 1 do
        Simnet.Net.set_link_drop net ~src ~dst:Simnet.Net.any_addr (fun ~label:l ->
            String.equal l label)
      done
    | Heal ->
      for src = 0 to n - 1 do
        Simnet.Net.clear_link net ~src ~dst:Simnet.Net.any_addr
      done
    | Drop_next matches -> Simnet.Net.drop_next_matching net matches
  in
  List.iter
    (fun (at, action) ->
      Simnet.Engine.schedule_at engine ~time:at (fun () ->
          marks := progress d :: !marks;
          apply action))
    spec.plan;
  let load =
    match (spec.load, spec.groups, d.d_door) with
    | Clients { op; think; _ }, Service service, _ -> start_clients d service ~op ~think
    | Sessions { sessions; op }, _, Some door -> start_sessions d door ~sessions ~op
    | Arrivals { sessions; arrival; op_bytes; conns; retransmit }, _, _ ->
      start_arrivals d ~sessions ~arrival ~op_bytes ~conns ~retransmit
    | Clients _, Sharded _, _ | Sessions _, _, None ->
      invalid_arg "Run: load does not fit the groups"
  in
  (* Availability: a bucket counts when at least one request completed
     since the previous tick. *)
  let buckets = ref 0 and buckets_ok = ref 0 and last = ref 0 in
  if spec.bucket > 0.0 then
    ignore
      (Simnet.Engine.periodic engine ~interval:spec.bucket (fun () ->
           let now = Simnet.Engine.now engine and completed = progress d in
           if now > spec.warmup && now <= spec.warmup +. spec.duration then begin
             incr buckets;
             if completed > !last then incr buckets_ok
           end;
           last := completed));
  run_for d spec.warmup;
  let close_window = load.open_window () in
  let base_completed = load.completed () in
  let base_events = Simnet.Engine.events engine and base_alloc = Gc.allocated_bytes () in
  let at_open = Util.Metrics.snapshot registry and opened = progress d in
  let measure_start = Simnet.Engine.now engine in
  run_for d spec.duration;
  let completed = load.completed () - base_completed in
  load.stop ();
  let span = Simnet.Engine.now engine -. measure_start in
  let latency = close_window () in
  let window_alloc = Gc.allocated_bytes () -. base_alloc in
  let window_events = Simnet.Engine.events engine - base_events in
  let at_close = Util.Metrics.snapshot registry and readings = load.readings () in
  if spec.drain > 0.0 then run_for d spec.drain;
  (* One-shot drop predicates armed but never matched must not leak into
     whatever runs on these nets next. *)
  Array.iter (fun c -> Simnet.Net.drain_drops (Pbft.Cluster.net c)) d.d_clusters;
  let everyone =
    List.concat_map (fun c -> Array.to_list (Pbft.Cluster.replicas c)) (Array.to_list d.d_clusters)
    @ d.d_retired
  in
  let recoveries, unrecovered =
    List.fold_left
      (fun (ds, bad) (t_crash, rep) ->
        match Pbft.Replica.recovery_completed_at rep with
        | Some t -> ((t -. t_crash) :: ds, bad)
        | None -> (ds, bad + 1))
      ([], 0) !incidents
  in
  let failures =
    lazy
      (if spec.plan = [] then []
       else
         let faulty = adversaries spec in
         safety (List.filter (fun r -> not (List.mem (Pbft.Replica.id r) faulty)) (live d))
         @ if unrecovered > 0 then [ "an incident never completed its rejoin" ] else [])
  in
  let churn_readings =
    match churn with
    | None -> []
    | Some _ ->
      Util.Metrics.
        [
          ( whole "churn" "availability",
            Real (if !buckets > 0 then float_of_int !buckets_ok /. float_of_int !buckets else 0.0)
          );
          ( whole "churn" "mean_recovery",
            Real
              (match recoveries with
              | [] -> 0.0
              | ds -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)) );
          (whole "churn" "max_recovery", Real (List.fold_left Float.max 0.0 recoveries));
          (whole "churn" "unrecovered", Count unrecovered);
        ]
  in
  (* The door's and the sessions' counters of a closed-loop session load
     cover the measured window, the way its completions do; everything
     else covers the whole run. *)
  let final = Util.Metrics.snapshot registry in
  let final =
    match spec.load with
    | Sessions _ ->
      let windowed = Util.Metrics.since at_open at_close in
      let door_side (k, _) = List.mem k.Util.Metrics.layer [ "webgate"; "shards"; "load" ] in
      List.filter (fun e -> not (door_side e)) final @ List.filter door_side windowed
    | Clients _ | Arrivals _ -> final
  in
  let events = Simnet.Engine.events engine in
  (* An open-loop run counts events and allocation over the measured
     window, every other run over the whole run, boot included. A run
     that completed nothing has no per-request numbers. *)
  let counted_events, alloc =
    match spec.load with
    | Arrivals _ -> (window_events, window_alloc)
    | Clients _ | Sessions _ -> (events, Gc.allocated_bytes () -. alloc0)
  in
  let per_request x = x /. float_of_int completed in
  let end_to_end =
    Util.Metrics.
      [
        ("completed", Count completed);
        ("window", Real span);
        ("virtual_tps", Real (if span > 0.0 then float_of_int completed /. span else 0.0));
        ("p50_latency", Real (Util.Stats.p50 latency));
        ("p95_latency", Real (Util.Stats.p95 latency));
        ("p99_latency", Real (Util.Stats.p99 latency));
        ("events", Count events);
      ]
    @
    if completed = 0 then []
    else
      Util.Metrics.
        [
          ("events_per_request", Real (per_request (float_of_int counted_events)));
          ("alloc_words_per_request", Real (per_request alloc /. float_of_int (Sys.word_size / 8)));
        ]
  in
  (* Only a plan that installs an adversary counts its mutations (the
     snapshot sums one entry per adversary), and only a run that reached
     the relational engine has a relsql section. *)
  let mutations a = (whole "adversary" "mutations", Util.Metrics.Count (Pbft.Adversary.mutations a)) in
  let pages_read = Relsql.Database.pages_read_total () - pages0 in
  let relsql =
    if pages_read = 0 then []
    else
      Util.Metrics.
        [
          (whole "relsql" "pages_read", Count pages_read);
          (whole "relsql" "rows_scanned", Count (Relsql.Database.rows_scanned_total () - rows0));
        ]
  in
  {
    deployment = d;
    latency;
    opened;
    marks = List.rev !marks;
    failures;
    metrics =
      Util.Metrics.with_values final
        (readings @ churn_readings @ List.map mutations !advs @ relsql @ incarnation_readings everyone
        @ List.map (fun (n, v) -> (whole "end_to_end" n, v)) end_to_end
        @ Util.Metrics.
            [
              (whole "crypto" "bytes_hashed", Count (Crypto.Sha256.bytes_hashed () - hashed0));
              (whole "statemgr" "bytes_copied", Count (Statemgr.Pages.bytes_copied () - copied0));
            ]);
  }
