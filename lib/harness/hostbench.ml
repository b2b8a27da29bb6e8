let workloads ?(seed = 1) ?(duration = 1.5) () =
  let cfg = Pbft.Config.default ~f:1 in
  List.map
    (fun (row, _paper, (dynamic, macs, allbig, batching)) ->
      let cfg = Experiments.with_flags ~dynamic ~macs ~allbig ~batching cfg in
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
  let completed = int_of_float (Run.e2e r "completed") in
  (digest_trace (Pbft.Cluster.trace (Run.cluster r.Run.deployment 0)) ~completed, r)

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
  let section entries = Obj (List.map (fun (n, v) -> (n, Num (Util.Metrics.to_float v))) entries) in
  let workload (name, r) =
    let e2e, layers =
      List.partition
        (fun (layer, _) -> String.equal layer "end_to_end")
        (Util.Metrics.layers r.Run.metrics)
    in
    Obj
      [
        ("name", Str name);
        ("end_to_end", section (List.concat_map snd e2e));
        ("layers", Obj (List.map (fun (layer, entries) -> (layer, section entries)) layers));
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
