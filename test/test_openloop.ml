(* Open-loop generator + gateway front door: flush triggers, determinism,
   admission control, session churn and the reply cache. *)

open Webgate
module Run = Harness.Run

(* --- frame & coalescing codecs --- *)

let test_frame_roundtrips () =
  let wire = Frontdoor.encode_request ~session:123456 ~req_id:42 ~op:"payload" in
  Alcotest.(check (option (triple int int string)))
    "request" (Some (123456, 42, "payload"))
    (Frontdoor.decode_request wire);
  Alcotest.(check (option (triple int int string))) "truncated request" None
    (Frontdoor.decode_request (String.sub wire 0 (String.length wire - 2)));
  (match Frontdoor.decode_reply (Frontdoor.encode_reply ~status:Frontdoor.Shed ~session:7 ~req_id:9 ~result:"") with
  | Some (Frontdoor.Shed, 7, 9, "") -> ()
  | Some _ | None -> Alcotest.fail "shed reply should roundtrip");
  (match Frontdoor.decode_reply (Frontdoor.encode_reply ~status:Frontdoor.Done ~session:7 ~req_id:9 ~result:"ok") with
  | Some (Frontdoor.Done, 7, 9, "ok") -> ()
  | Some _ | None -> Alcotest.fail "done reply should roundtrip")

let test_coalesced_roundtrip () =
  let entries = [ (1, "alpha"); (99, ""); (100000, "gamma") ] in
  Alcotest.(check (option (list (pair int string))))
    "coalesced" (Some entries)
    (Frontdoor.decode_coalesced (Frontdoor.encode_coalesced entries));
  (* A plain operation must not parse as a batch. *)
  Alcotest.(check (option (list (pair int string)))) "plain op passes through" None
    (Frontdoor.decode_coalesced "ordinary-operation");
  Alcotest.(check (option (list string)))
    "results" (Some [ "a"; ""; "c" ])
    (Frontdoor.decode_results (Frontdoor.encode_results [ "a"; ""; "c" ]))

(* --- arrival processes --- *)

let test_arrival_rates () =
  Alcotest.(check (float 1e-9)) "poisson flat" 500.0 (Run.rate_at (Run.Poisson 500.0) 12.34);
  let b = Run.Bursty { base = 100.0; burst = 900.0; period = 1.0; duty = 0.25 } in
  Alcotest.(check (float 1e-9)) "burst phase" 900.0 (Run.rate_at b 0.1);
  Alcotest.(check (float 1e-9)) "base phase" 100.0 (Run.rate_at b 0.5);
  Alcotest.(check (float 1e-9)) "bursty mean" 300.0 (Run.mean_rate b);
  let d = Run.Diurnal { mean = 200.0; amplitude = 0.5; period = 1.0 } in
  Alcotest.(check (float 1e-9)) "diurnal mean" 200.0 (Run.mean_rate d);
  Alcotest.(check (float 1e-6)) "diurnal peak" 300.0 (Run.rate_at d 0.25)

(* --- deterministic flush boundaries --- *)

(* A bursty arrival process exercises both flush triggers: the burst
   phase accumulates [flush_bytes] quickly (size flush), the quiet phase
   leaves partial batches to the deadline timer. Two runs of the same
   spec must produce bit-identical message traces — the size/deadline
   race is resolved by the virtual clock, never by host state. *)
let valid_gateway =
  {
    Frontdoor.connections = 4;
    flush_bytes = 1024;
    flush_deadline = 0.003;
    max_queue = 4096;
    max_sessions = 256;
  }

let small_spec ?(sessions = 200)
    ?(arrival = Run.Bursty { base = 150.0; burst = 4000.0; period = 0.1; duty = 0.3 })
    ?(duration = 0.35) ?retransmit ?(door = valid_gateway) () =
  {
    (Run.closed (Pbft.Config.default ~f:1)) with
    Run.door = Some door;
    load = Run.Arrivals { sessions; arrival; op_bytes = 128; conns = 8; retransmit };
    warmup = 0.05;
    duration;
  }

(* Run the spec and hand back the result with its door, shut down. *)
let run_door spec =
  let r = Run.run spec in
  let door = Option.get (Run.door r.Run.deployment) in
  Frontdoor.shutdown door;
  (r, door)

(* A door counter or a load number of the run's metrics. *)
let door_count r name =
  Util.Metrics.get r.Run.metrics ~node:Frontdoor.frontdoor_addr ~layer:"webgate" name

let load_count r name = Util.Metrics.get r.Run.metrics ~node:Util.Metrics.run_node ~layer:"load" name

let trace_digest cluster =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Simnet.Trace.entry) ->
      Buffer.add_string buf
        (Printf.sprintf "%.9f|%d|%d|%s|%d|%s\n" e.time e.src e.dst e.label e.size e.detail))
    (Simnet.Trace.entries (Pbft.Cluster.trace cluster));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_flush_triggers_deterministic () =
  let run () =
    let r, door = run_door { (small_spec ()) with Run.trace = true } in
    (r.Run.completed, Frontdoor.flushes_size door, Frontdoor.flushes_deadline door,
     trace_digest (Run.cluster r.Run.deployment 0))
  in
  let completed1, size1, deadline1, d1 = run () in
  let completed2, size2, deadline2, d2 = run () in
  Alcotest.(check bool) "size flushes occur" true (size1 > 0);
  Alcotest.(check bool) "deadline flushes occur" true (deadline1 > 0);
  Alcotest.(check bool) "requests complete" true (completed1 > 0);
  Alcotest.(check string) "bit-identical trace" d1 d2;
  Alcotest.(check int) "same completions" completed1 completed2;
  Alcotest.(check int) "same size flushes" size1 size2;
  Alcotest.(check int) "same deadline flushes" deadline1 deadline2

(* --- admission control --- *)

let test_shed_is_distinguishable () =
  (* A queue bound far below the offered load forces shedding; the
     generator must observe the distinct Shed status (not timeouts, not
     garbled results) and the counts must reconcile with the door's. *)
  let r, door =
    run_door
      (small_spec ~sessions:300 ~arrival:(Run.Poisson 20000.0) ~duration:0.3
         ~door:{ valid_gateway with Frontdoor.connections = 2; max_queue = 32 }
         ())
  in
  let gen_shed = load_count r "gen_shed" in
  Alcotest.(check bool) "door sheds" true (Frontdoor.shed door > 0);
  Alcotest.(check bool) "generator sees shed replies" true (gen_shed > 0);
  Alcotest.(check bool) "still completes under overload" true (r.Run.completed > 0);
  Alcotest.(check int) "no malformed frames" 0 (door_count r "rejected");
  Alcotest.(check bool) "shed observed <= shed sent" true (gen_shed <= Frontdoor.shed door)

(* --- session churn --- *)

let test_eviction_readmission () =
  (* Far more sessions than LRU slots: records churn out constantly. A
     retransmission from an evicted session must be re-admitted as a
     fresh record and answered — eviction loses the reply cache, never
     the ability to make progress. *)
  let r, door =
    run_door
      (small_spec ~sessions:256 ~arrival:(Run.Poisson 1200.0) ~duration:0.5 ~retransmit:0.06
         ~door:{ valid_gateway with Frontdoor.max_sessions = 32 }
         ())
  in
  Alcotest.(check bool) "sessions evicted" true (door_count r "session_evictions" > 0);
  Alcotest.(check int) "live sessions bounded" 32 (Frontdoor.live_sessions door);
  Alcotest.(check bool) "progress continues under churn" true (r.Run.completed > 200);
  Alcotest.(check int) "evicted retransmissions accepted, not rejected" 0
    (door_count r "rejected")

(* --- reply cache --- *)

let test_reply_cache_replays () =
  let cfg = Pbft.Config.default ~f:1 in
  let cluster =
    Pbft.Cluster.create ~seed:42 ~num_clients:2
      ~service:(Frontdoor.wrap_service (Pbft.Service.counter ())) cfg
  in
  let net = Pbft.Cluster.net cluster in
  let door =
    Frontdoor.create
      ~cfg:
        {
          Frontdoor.connections = 2;
          flush_bytes = 64;
          flush_deadline = 0.002;
          max_queue = 64;
          max_sessions = 16;
        }
      ~engine:(Pbft.Cluster.engine cluster) ~net ~clients:(Pbft.Cluster.clients cluster) ()
  in
  let session_addr = 7777 in
  let replies = ref [] in
  Simnet.Net.register net session_addr (fun ~src:_ wire -> replies := wire :: !replies);
  let frame = Frontdoor.encode_request ~session:5 ~req_id:1 ~op:"incr" in
  Simnet.Net.send net ~src:session_addr ~dst:Frontdoor.frontdoor_addr frame;
  Pbft.Cluster.run cluster ~seconds:1.0;
  Alcotest.(check int) "executed once" 1 (Frontdoor.completed door);
  Alcotest.(check int) "one reply" 1 (List.length !replies);
  (* The identical frame again: answered from the session's last-reply
     cache without re-executing. *)
  Simnet.Net.send net ~src:session_addr ~dst:Frontdoor.frontdoor_addr frame;
  Pbft.Cluster.run cluster ~seconds:0.5;
  Alcotest.(check int) "cache hit" 1
    (Util.Metrics.get
       (Util.Metrics.snapshot (Simnet.Engine.metrics (Pbft.Cluster.engine cluster)))
       ~node:Frontdoor.frontdoor_addr ~layer:"webgate" "reply_cache_hits");
  Alcotest.(check int) "not re-executed" 1 (Frontdoor.completed door);
  match List.rev_map Frontdoor.decode_reply !replies with
  | [ Some (Frontdoor.Done, 5, 1, r1); Some (Frontdoor.Done, 5, 1, r2) ] ->
    Alcotest.(check string) "replayed result identical" r1 r2
  | _ -> Alcotest.fail "expected two well-formed Done replies for req 1"

(* --- config validation --- *)

(* Each of these used to hang rather than fail: a zero size trigger spins
   the deadline callback (or never dispatches), and a zero deadline
   re-arms at zero delay so virtual time stops. *)
let check_rejected field gateway =
  let cluster = Pbft.Cluster.create ~seed:3 ~num_clients:1 (Pbft.Config.default ~f:1) in
  match
    Frontdoor.create ~cfg:gateway ~engine:(Pbft.Cluster.engine cluster)
      ~net:(Pbft.Cluster.net cluster) ~clients:(Pbft.Cluster.clients cluster) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s accepted" field

let test_rejects_flush_bytes () =
  check_rejected "flush_bytes = 0" { valid_gateway with Frontdoor.flush_bytes = 0 }

let test_rejects_flush_deadline () =
  check_rejected "flush_deadline = 0" { valid_gateway with Frontdoor.flush_deadline = 0.0 };
  check_rejected "flush_deadline < 0" { valid_gateway with Frontdoor.flush_deadline = -1.0 }

let test_rejects_max_queue () =
  check_rejected "max_queue = 0" { valid_gateway with Frontdoor.max_queue = 0 }

(* --- pinned gateway trace --- *)

(* The door's behaviour is pinned by the digest of a seeded open-loop run
   that exercises both flush triggers, shedding, session eviction and the
   reply cache. A refactor of the door must leave it bit-identical. *)
let pinned_gateway_digest = "1ff6d05c035e031285a6a740e9cfcb422bf4ea9c4f4641e8e767948dcb362181"

let test_gateway_digest_pinned () =
  Alcotest.(check string) "gateway trace digest" pinned_gateway_digest
    (Harness.Hostbench.gateway_trace_digest ())

let () =
  Alcotest.run "openloop"
    [
      ( "codec",
        [
          Alcotest.test_case "frames roundtrip" `Quick test_frame_roundtrips;
          Alcotest.test_case "coalescing roundtrip" `Quick test_coalesced_roundtrip;
        ] );
      ("arrivals", [ Alcotest.test_case "rates & means" `Quick test_arrival_rates ]);
      ( "gateway",
        [
          Alcotest.test_case "flush triggers deterministic" `Slow
            test_flush_triggers_deterministic;
          Alcotest.test_case "shed is distinguishable" `Slow test_shed_is_distinguishable;
          Alcotest.test_case "eviction & readmission" `Slow test_eviction_readmission;
          Alcotest.test_case "reply cache replays" `Quick test_reply_cache_replays;
          Alcotest.test_case "pinned gateway trace digest" `Slow test_gateway_digest_pinned;
          Alcotest.test_case "rejects flush_bytes < 1" `Quick test_rejects_flush_bytes;
          Alcotest.test_case "rejects flush_deadline <= 0" `Quick test_rejects_flush_deadline;
          Alcotest.test_case "rejects max_queue < 1" `Quick test_rejects_max_queue;
        ] );
    ]
