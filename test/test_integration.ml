(* End-to-end integration: the SQL state abstraction under PBFT, the
   e-voting application, and the experiment harness itself. *)

open Pbft

let state_digest r = Statemgr.Merkle.root (Statemgr.Merkle.build (Replica.pages r))

(* --- replicated SQL --- *)

let test_sql_service_basic () =
  let cluster =
    Cluster.create ~seed:1 ~num_clients:2 ~service:(Relsql.Pbft_service.service ())
      (Config.default ~f:1)
  in
  Simnet.Trace.set_enabled (Cluster.trace cluster) false;
  let c = Cluster.client cluster 0 in
  let count = ref "" in
  Client.invoke c (Relsql.Pbft_service.insert_vote_sql ~voter:"v1" ~choice:"a") (fun r ->
      Alcotest.(check string) "insert ok" "ok:1" r;
      Client.invoke c "SELECT COUNT(*) FROM votes" (fun r -> count := String.trim r));
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check bool) "count is 1" true
    (String.length !count >= 1 && !count.[String.length !count - 1] = '1')

let test_sql_replicas_converge_with_nondeterminism () =
  (* NOW() and RANDOM() appear in every insert; replicas stay identical
     because the values come from the agreed pre-prepare data (§2.5). *)
  let cluster =
    Cluster.create ~seed:2 ~num_clients:4 ~service:(Relsql.Pbft_service.service ())
      (Config.default ~f:1)
  in
  Simnet.Trace.set_enabled (Cluster.trace cluster) false;
  Array.iteri
    (fun i cl ->
      let rec go n =
        if n <= 10 then
          Client.invoke cl
            (Relsql.Pbft_service.insert_vote_sql
               ~voter:(Printf.sprintf "v%d-%d" i n)
               ~choice:"x")
            (fun _ -> go (n + 1))
      in
      go 1)
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:20.0;
  let digests = Array.map state_digest (Cluster.replicas cluster) in
  Array.iter (fun d -> Alcotest.(check string) "replicas identical" digests.(0) d) digests;
  Alcotest.(check int) "all executed" 40 (Replica.executed_requests (Cluster.replica cluster 0))

let test_sql_error_replies_consistent () =
  let cluster =
    Cluster.create ~seed:3 ~num_clients:1 ~service:(Relsql.Pbft_service.service ())
      (Config.default ~f:1)
  in
  Simnet.Trace.set_enabled (Cluster.trace cluster) false;
  let c = Cluster.client cluster 0 in
  let reply = ref "" in
  Client.invoke c "INSERT INTO nonexistent (x) VALUES (1)" (fun r -> reply := r);
  Cluster.run cluster ~seconds:5.0;
  (* The reply completed, meaning f+1 replicas produced the *same* error. *)
  Alcotest.(check bool) "error reply" true
    (String.length !reply >= 6 && String.sub !reply 0 6 = "error:")

let test_sql_state_transfer_repairs_engine () =
  (* A replica misses a batch (lost body), recovers via state transfer,
     and its SQL engine — whose pager reads through the transferred
     region — serves the right data afterwards. *)
  let cluster =
    Cluster.create ~seed:4 ~num_clients:4 ~service:(Relsql.Pbft_service.service ())
      (Config.default ~f:1)
  in
  Simnet.Trace.set_enabled (Cluster.trace cluster) false;
  let stop = ref false in
  Array.iteri
    (fun i cl ->
      let n = ref 0 in
      let rec loop _ =
        if not !stop then begin
          incr n;
          Client.invoke cl
            (Relsql.Pbft_service.insert_vote_sql ~voter:(Printf.sprintf "v%d-%d" i !n) ~choice:"c")
            loop
        end
      in
      loop "")
    (Cluster.clients cluster);
  Simnet.Engine.schedule (Cluster.engine cluster) ~delay:0.3 (fun () ->
      ignore
        (Simnet.Net.drop_next_matching (Cluster.net cluster) (fun ~src ~dst ~label ->
             src >= Types.client_addr_base && dst = 2 && label = "request")));
  Cluster.run cluster ~seconds:8.0;
  stop := true;
  Cluster.run cluster ~seconds:2.0;
  let r2 = Cluster.replica cluster 2 in
  Alcotest.(check bool) "transfer happened" true (Replica.state_transfers r2 >= 1);
  (* Ask the recovered replica (read-only executes locally at every
     replica, so matching replies require the victim to be consistent). *)
  let count = ref "" in
  Client.invoke (Cluster.client cluster 0) ~readonly:true "SELECT COUNT(*) FROM votes" (fun r ->
      count := r);
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check bool) "read-only quorum reached after recovery" true (!count <> "")

(* --- e-voting --- *)

let voting_cluster () =
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true } in
  let cluster = Cluster.create ~seed:5 ~num_clients:4 ~service:(Evoting.service ()) cfg in
  Simnet.Trace.set_enabled (Cluster.trace cluster) false;
  let joined = ref 0 in
  Array.iteri
    (fun i cl ->
      Client.join cl
        ~idbuf:(Printf.sprintf "voter%d:pw" i)
        (function Some _ -> incr joined | None -> ()))
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check int) "everyone joined" 4 !joined;
  cluster

let test_evoting_end_to_end () =
  let cluster = voting_cluster () in
  let official = Cluster.client cluster 0 in
  let accepted = ref 0 and rejected = ref 0 in
  Client.invoke official (Evoting.create_election_sql ~name:"test") (fun _ -> ());
  Cluster.run cluster ~seconds:2.0;
  Array.iteri
    (fun i cl ->
      Client.invoke cl
        (Evoting.cast_vote_sql ~election:1 ~voter:(Printf.sprintf "voter%d" i)
           ~choice:(if i < 3 then "yes" else "no"))
        (fun r -> if Evoting.vote_accepted r then incr accepted else incr rejected))
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:3.0;
  Alcotest.(check int) "all ballots accepted" 4 !accepted;
  (* Duplicate ballot rejected deterministically. *)
  Client.invoke (Cluster.client cluster 1)
    (Evoting.cast_vote_sql ~election:1 ~voter:"voter1" ~choice:"no")
    (fun r -> if Evoting.vote_accepted r then incr accepted else incr rejected);
  Cluster.run cluster ~seconds:3.0;
  Alcotest.(check int) "duplicate rejected" 1 !rejected;
  (* Tally through the read-only path. *)
  let tally = ref "" in
  Client.invoke official ~readonly:true (Evoting.tally_sql ~election:1) (fun r -> tally := r);
  Cluster.run cluster ~seconds:3.0;
  let has_yes3 = ref false in
  String.split_on_char '\n' !tally
  |> List.iter (fun line -> if String.trim line = "yes | 3" then has_yes3 := true);
  Alcotest.(check bool) ("tally correct: " ^ !tally) true !has_yes3

let test_evoting_ballot_id_stability () =
  (* The ballot id is what makes double voting detectable across
     replicas; it must be a pure function of (election, voter). *)
  let a = Evoting.cast_vote_sql ~election:1 ~voter:"alice" ~choice:"x" in
  let b = Evoting.cast_vote_sql ~election:1 ~voter:"alice" ~choice:"y" in
  let id_of sql = List.hd (String.split_on_char ',' (List.nth (String.split_on_char '(' sql) 2)) in
  Alcotest.(check string) "same voter same id" (id_of a) (id_of b);
  let c = Evoting.cast_vote_sql ~election:2 ~voter:"alice" ~choice:"x" in
  Alcotest.(check bool) "different election different id" false (id_of a = id_of c)

(* --- threshold reply certificates (§3.3.1) --- *)

let test_certified_replies () =
  let cluster =
    Cluster.create ~seed:9 ~num_clients:2 ~service:(Service.counter ()) ~threshold_replies:true
      (Config.default ~f:1)
  in
  Simnet.Trace.set_enabled (Cluster.trace cluster) false;
  let pk = Option.get (Cluster.threshold_public cluster) in
  let c = Cluster.client cluster 0 in
  let got = ref None in
  Client.invoke_certified c "incr" (fun result cert -> got := Some (result, cert));
  Cluster.run cluster ~seconds:5.0;
  match !got with
  | Some (result, Some cert) ->
    Alcotest.(check string) "result" "1" result;
    Alcotest.(check bool) "certificate verifies offline" true
      (Certificate.verify pk ~client:1 ~rq_id:1 ~result cert);
    Alcotest.(check bool) "wrong result rejected" false
      (Certificate.verify pk ~client:1 ~rq_id:1 ~result:"2" cert);
    Alcotest.(check bool) "wrong request rejected" false
      (Certificate.verify pk ~client:1 ~rq_id:2 ~result cert);
    Alcotest.(check bool) "wrong client rejected" false
      (Certificate.verify pk ~client:2 ~rq_id:1 ~result cert)
  | Some (_, None) -> Alcotest.fail "no certificate combined"
  | None -> Alcotest.fail "request did not complete"

let test_certificates_absent_without_key () =
  let cluster = Cluster.create ~seed:10 ~num_clients:1 ~service:(Service.counter ()) (Config.default ~f:1) in
  Simnet.Trace.set_enabled (Cluster.trace cluster) false;
  let got = ref None in
  Client.invoke_certified (Cluster.client cluster 0) "incr" (fun r c -> got := Some (r, c));
  Cluster.run cluster ~seconds:5.0;
  match !got with
  | Some (_, None) -> ()
  | Some (_, Some _) -> Alcotest.fail "unexpected certificate"
  | None -> Alcotest.fail "request did not complete"

(* --- harness smoke --- *)

let test_scenario_runs_and_measures () =
  let spec =
    { (Harness.Scenario.default_spec (Config.default ~f:1)) with
      Harness.Scenario.duration = 0.3; warmup = 0.1 }
  in
  let o = Harness.Scenario.run spec in
  Alcotest.(check bool) "throughput positive" true (o.Harness.Scenario.tps > 1000.0);
  Alcotest.(check bool) "latency sane" true
    (o.Harness.Scenario.mean_latency > 0.0 && o.Harness.Scenario.mean_latency < 0.1);
  Alcotest.(check int) "no view changes" 0 o.Harness.Scenario.view_changes

let test_scenario_dynamic_mode () =
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true } in
  let spec =
    { (Harness.Scenario.default_spec cfg) with
      Harness.Scenario.duration = 0.3; warmup = 0.1; num_clients = 4 }
  in
  let o = Harness.Scenario.run spec in
  Alcotest.(check bool) "dynamic workload runs" true (o.Harness.Scenario.tps > 100.0)

(* Substring containment without extra libraries. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_report_rendering () =
  let r =
    {
      Harness.Report.title = "t";
      rows = [ Harness.Report.row ~paper:100.0 ~note:"n" "cfg" 42.0 ];
      commentary = [ "c" ];
    }
  in
  let s = Harness.Report.render r in
  List.iter
    (fun frag -> Alcotest.(check bool) ("contains " ^ frag) true (contains s frag))
    [ "t"; "cfg"; "100"; "42"; "n"; "c" ]

let test_figure_traces_nonempty () =
  let f1 = Harness.Experiments.figure1 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("figure1 has " ^ needle) true (contains f1 needle))
    [ "request"; "pre-prepare"; "prepare"; "commit"; "reply" ];
  let f2 = Harness.Experiments.figure2 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("figure2 has " ^ needle) true (contains f2 needle))
    [ "join-request"; "join-challenge"; "join-response"; "join-reply" ]

(* Figure 3 pinned: the engine's VFS calls for one ACID insert (after the
   schema is set up) verbatim, and the whole figure — set-up calls plus
   the replicated message trace — by digest. A page view handed out by
   the VFS must still show up as xRead in the same place as a copy did. *)
let figure3_insert_calls =
  [
    "xRead  main    pos=0      len=4096";
    "xRead  main    pos=4096   len=4096";
    "xCurrentTime  -> agreed pre-prepare timestamp (§2.5)";
    "xRandomness   -> agreed pre-prepare randomness (§2.5)";
    "xRead  main    pos=8192   len=4096";
    "xRead  main    pos=8192   len=4096";
    "xRead  main    pos=8192   len=4096";
    "xWrite journal pos=4      len=4";
    "xWrite journal pos=8      len=4096";
    "xWrite journal pos=0      len=4";
    "xWrite main    pos=8192   len=4096";
    "xRead  main    pos=4096   len=4096";
    "xRead  main    pos=4096   len=4096";
    "xWrite journal pos=4104   len=4";
    "xWrite journal pos=4108   len=4096";
    "xWrite journal pos=0      len=4";
    "xWrite main    pos=4096   len=4096";
    "xSync  journal (durability barrier)";
    "xSync  main    (durability barrier)";
    "xTruncate journal to 0";
    "xWrite journal pos=0      len=4";
    "xSync  journal (durability barrier)";
  ]

let pinned_figure3_digest = "7314b887d21554cb4c61aec7a7be60e30e911d493934274c4e5a2da8fcd8d95f"

let test_figure3_vfs_calls_pinned () =
  let fig = Harness.Experiments.figure3 () in
  let lines = String.split_on_char '\n' fig in
  let rec after_marker = function
    | [] -> Alcotest.fail "figure3: no INSERT marker"
    | l :: rest ->
      if String.equal (String.trim l) "--- INSERT begins ---" then rest else after_marker rest
  in
  let rec until_blank = function
    | [] | "" :: _ -> []
    | l :: rest -> String.trim l :: until_blank rest
  in
  Alcotest.(check (list string)) "one ACID insert at the VFS seam" figure3_insert_calls
    (until_blank (after_marker lines));
  Alcotest.(check string) "whole figure" pinned_figure3_digest
    (Crypto.Sha256.hex fig)

(* --- host-time benchmark harness --- *)

(* The perf caches (wire sharing, digest memos, MAC memo) must not leak
   into simulation semantics: the same seed must yield the same
   virtual-time trace, entry for entry. *)
let test_trace_digest_deterministic () =
  let d1 = Harness.Hostbench.trace_digest ~seed:11 ~seconds:0.15 () in
  let d2 = Harness.Hostbench.trace_digest ~seed:11 ~seconds:0.15 () in
  Alcotest.(check string) "same seed, same trace" d1 d2;
  let d3 = Harness.Hostbench.trace_digest ~seed:12 ~seconds:0.15 () in
  Alcotest.(check bool) "different seed, different trace" true (d1 <> d3)

let test_hostbench_measure_and_json () =
  let m =
    { (Harness.Hostbench.table1_default ~seed:3 ~duration:0.2 ()) with Harness.Hostbench.name = "smoke" }
  in
  Alcotest.(check bool) "events counted" true (m.Harness.Hostbench.events > 0);
  Alcotest.(check bool) "bytes hashed" true (m.Harness.Hostbench.bytes_hashed > 0);
  Alcotest.(check bool) "virtual tps positive" true (m.Harness.Hostbench.virtual_tps > 0.0);
  Alcotest.(check bool) "host time sane" true (m.Harness.Hostbench.host_seconds >= 0.0);
  let json = Webgate.Json.parse (Harness.Hostbench.to_json ~now:"test" [ m ]) in
  Alcotest.(check string) "schema tag" "pbft-repro/bench/v7"
    (Webgate.Json.to_string_exn (Webgate.Json.member "schema" json));
  Alcotest.(check bool) "checkpoints counted" true (m.Harness.Hostbench.checkpoint_count > 0);
  match Webgate.Json.member "workloads" json with
  | Webgate.Json.Arr [ w ] ->
    Alcotest.(check string) "workload name" "smoke"
      (Webgate.Json.to_string_exn (Webgate.Json.member "name" w));
    List.iter
      (fun field ->
        match Webgate.Json.member field w with
        | Webgate.Json.Num _ -> ()
        | _ -> Alcotest.fail (field ^ " should be a number"))
      [
        "checkpoint_count";
        "undo_snapshots";
        "bytes_copied";
        "bytes_copied_per_checkpoint";
        "pages_read";
        "rows_scanned";
        "speculative_executions";
        "rollbacks";
        "tentative_completed";
        "stable_completed";
        "core_utilization";
        "p50_latency";
        "p95_latency";
        "p99_latency";
        "shed";
        "gw_evictions";
        "gw_queue_peak";
        "replica_queue_peak";
        "ro_cache_evictions";
        "sessions";
        "arrivals";
        "offered_load";
        "flushes_size";
        "flushes_deadline";
        "reply_cache_hits";
        "events_per_request";
        "alloc_per_request";
      ]
  | _ -> Alcotest.fail "workloads should hold the one measurement"

let () =
  Alcotest.run "integration"
    [
      ( "replicated-sql",
        [
          Alcotest.test_case "insert & count" `Quick test_sql_service_basic;
          Alcotest.test_case "nondeterminism converges (§2.5)" `Slow
            test_sql_replicas_converge_with_nondeterminism;
          Alcotest.test_case "error replies consistent" `Quick test_sql_error_replies_consistent;
          Alcotest.test_case "state transfer repairs engine" `Slow
            test_sql_state_transfer_repairs_engine;
        ] );
      ( "evoting",
        [
          Alcotest.test_case "end to end" `Slow test_evoting_end_to_end;
          Alcotest.test_case "ballot id stability" `Quick test_evoting_ballot_id_stability;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "threshold reply certificate (§3.3.1)" `Slow test_certified_replies;
          Alcotest.test_case "absent without service key" `Quick
            test_certificates_absent_without_key;
        ] );
      ( "harness",
        [
          Alcotest.test_case "scenario measures" `Slow test_scenario_runs_and_measures;
          Alcotest.test_case "dynamic scenario" `Slow test_scenario_dynamic_mode;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
          Alcotest.test_case "figure traces" `Slow test_figure_traces_nonempty;
          Alcotest.test_case "figure 3 VFS call log pinned" `Quick test_figure3_vfs_calls_pinned;
        ] );
      ( "hostbench",
        [
          Alcotest.test_case "trace digest deterministic" `Slow test_trace_digest_deterministic;
          Alcotest.test_case "measure & BENCH.json shape" `Slow test_hostbench_measure_and_json;
        ] );
    ]
