(* Byzantine fault scenarios: each adversary behavior runs against an
   otherwise-correct f=1 cluster and must preserve safety (no
   conflicting commits, identical state at identical sequence numbers)
   and liveness (clients keep completing requests with the adversary
   still installed). The per-behavior expectations — view change elects
   a new primary, starved backup demotes, forged votes bounce — live in
   Harness.Faults; a scenario fails if any expectation does. *)

let run scenario =
  let c, failures = Harness.Faults.run scenario in
  (match failures with
  | [] -> ()
  | fs -> Alcotest.failf "%s" (String.concat "; " fs));
  c

let scenario ?(speculative = false) name =
  List.find
    (fun (s : Harness.Faults.scenario) -> String.equal s.name name)
    (Harness.Faults.suite ~seed:11 ~speculative ())

let check_behavior ?speculative behavior () =
  ignore
    (run (scenario ?speculative (Pbft.Adversary.behavior_name behavior)) : Harness.Faults.check)

(* The PR 6 regression: a view change that lands while replicas hold
   executed-but-uncommitted batches must roll the speculation back (for
   real — the scenario fails unless rollbacks actually happened) and
   still satisfy every safety and liveness predicate afterwards. *)
let test_vc_mid_speculation () =
  let c = run (scenario ~speculative:true "vc-mid-speculation") in
  let total = Util.Metrics.total c.Harness.Faults.correct ~layer:"pbft" in
  Alcotest.(check bool) "speculated" true (total "speculative_executions" > 0);
  Alcotest.(check bool) "rolled back" true (total "rollbacks" > 0)

let test_suite_covers_all_behaviors () =
  (* The suite list is the contract CI runs; a behavior added to the
     adversary but not to the suite would silently go untested. *)
  let names =
    List.map (fun (s : Harness.Faults.scenario) -> s.name) (Harness.Faults.suite ~speculative:false ())
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "suite covers %s" expected)
        true (List.mem expected names))
    [
      "equivocate";
      "mute";
      "selective-mute";
      "corrupt-macs";
      "garbage-view-change";
      "mutate-nondet";
    ]

let () =
  Alcotest.run "faults"
    [
      ( "scenarios",
        [
          Alcotest.test_case "suite covers all behaviors" `Quick test_suite_covers_all_behaviors;
          Alcotest.test_case "equivocating primary (safety)" `Slow
            (check_behavior Pbft.Adversary.Equivocate);
          Alcotest.test_case "mute primary (liveness)" `Slow (check_behavior Pbft.Adversary.Mute);
          Alcotest.test_case "selective mute -> demotion (§2.4)" `Slow
            (check_behavior (Pbft.Adversary.Selective_mute [ 2 ]));
          Alcotest.test_case "corrupted authenticators (§2.3)" `Slow
            (check_behavior Pbft.Adversary.Corrupt_macs);
          Alcotest.test_case "garbage view-change votes" `Slow
            (check_behavior Pbft.Adversary.Garbage_view_change);
          Alcotest.test_case "mutated non-determinism (§2.5)" `Slow
            (check_behavior Pbft.Adversary.Mutate_nondet);
          Alcotest.test_case "view change mid-speculation (rollback)" `Slow
            test_vc_mid_speculation;
          Alcotest.test_case "equivocating primary, pipelined" `Slow
            (check_behavior ~speculative:true Pbft.Adversary.Equivocate);
          Alcotest.test_case "mute primary, pipelined" `Slow
            (check_behavior ~speculative:true Pbft.Adversary.Mute);
        ] );
    ]
