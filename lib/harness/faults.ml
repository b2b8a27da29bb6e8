open Pbft

type check = {
  result : Run.result;
  correct : Util.Metrics.snapshot;
  view : int;
  baseline : int;
  recovered : int;
}

let counted c name = Util.Metrics.total c.correct ~layer:"pbft" name

type scenario = { name : string; spec : Run.spec; expect : (string * (check -> bool)) list }

let adversary_id behavior =
  match behavior with
  (* Vote forgery must come from a non-primary, or there is nothing to
     disrupt: the claim under test is that garbage votes cannot drag a
     healthy view down. Every other behavior wants the view-0 primary. *)
  | Adversary.Garbage_view_change -> 3
  | _ -> 0

let base_cfg ~speculative =
  let cfg = { (Config.default ~f:1) with Config.view_change_timeout = 0.25 } in
  (* Speculative variant: the scenario re-runs with the execution
     pipeline on, so the fault also meets replicas holding
     executed-but-uncommitted state. *)
  if speculative then { cfg with Config.pipeline_depth = 4; cores = 2 } else cfg

let behavior_cfg ~speculative behavior =
  let cfg = base_cfg ~speculative in
  match behavior with
  | Adversary.Mutate_nondet ->
    (* §2.5: only a validation policy stands between the backups and the
       primary's poisoned non-determinism. *)
    { cfg with Config.nondet = Config.Delta 0.5 }
  | Adversary.Selective_mute _ ->
    (* Status gossip replays missed entries and would heal the starved
       backup before it ever falls a checkpoint behind; the §2.4
       demotion pathology needs it off (a faithful rendering of PBFT
       without its retransmission machinery). *)
    { cfg with Config.status_period = 0.0; checkpoint_interval = 64 }
  | _ -> cfg

let behaviors =
  [
    Adversary.Equivocate;
    Adversary.Mute;
    Adversary.Selective_mute [ 2 ];
    Adversary.Corrupt_macs;
    Adversary.Garbage_view_change;
    Adversary.Mutate_nondet;
  ]

(* Healthy until 0.3 s, then the fault; the measured window is the 1 s
   recovery window that opens 2.2 s later (the backed-off watchdog needs
   a couple of timeouts' worth of room), with the fault still in place —
   a BFT group must make progress with f faulty members present, not
   merely after they stop. *)
let fault_at = 0.3

let scenario_spec ~seed cfg ~op plan =
  {
    (Run.closed cfg) with
    Run.seed;
    load = Run.clients ~clients:8 op;
    warmup = 2.5;
    duration = 1.0;
    drain = 0.2;
    plan;
  }

let null_op ~client:_ ~seq:_ = String.make 512 'f'

let mutated = ("adversary never fired a mutation", fun c -> c.result.Run.mutations > 0)
let progressed what = (what, fun c -> c.baseline > 0)
let recovered what = (what, fun c -> c.recovered > 0)
let new_primary = ("no view change elected a new primary", fun c -> c.view > 0)

let behavior ?(seed = 11) ?(speculative = false) b =
  let specific =
    match b with
    | Adversary.Equivocate | Adversary.Mute -> [ new_primary ]
    | Adversary.Corrupt_macs ->
      [
        new_primary;
        ( "corrupted authenticators were never rejected",
          fun c -> counted c "auth_failures" > 0 );
      ]
    | Adversary.Mutate_nondet ->
      [
        new_primary;
        ("poisoned nondet was never rejected", fun c -> counted c "nondet_rejects" > 0);
      ]
    | Adversary.Selective_mute _ ->
      (* The starved backup must demote itself into a state transfer. *)
      [ ("starved replica was never demoted", fun c -> counted c "demotions" > 0) ]
    | Adversary.Garbage_view_change ->
      (* Forged votes must be rejected, and must not drag the view up. *)
      [
        ("garbage votes were not rejected", fun c -> counted c "auth_failures" > 0);
        ("garbage votes disturbed the view", fun c -> c.view = 0);
      ]
  in
  {
    name = Adversary.behavior_name b;
    spec =
      scenario_spec ~seed (behavior_cfg ~speculative b) ~op:null_op
        [ (fault_at, Run.Adversary (adversary_id b, b)) ];
    expect =
      [
        mutated;
        progressed "no progress before the fault";
        recovered "no progress in the recovery window";
      ]
      @ specific;
  }

(* The same faulty primary, but the load arrives open-loop through the
   front door: sessions multiplexed over a handful of upstream
   connections, coalesced batches, admission control live. Enough
   connections and offered load that the primary's pre-prepare batches
   regularly hold several coalesced requests — the equivocation rewrite
   needs a batch it can reorder. *)
let gateway ?(seed = 11) b =
  let spec = scenario_spec ~seed (behavior_cfg ~speculative:false b) ~op:null_op [] in
  {
    name = "gateway-" ^ Adversary.behavior_name b;
    spec =
      {
        spec with
        Run.door =
          Some
            {
              Webgate.Frontdoor.connections = 8;
              flush_bytes = 2 * 1024;
              flush_deadline = 0.002;
              max_queue = 4096;
              max_sessions = 512;
            };
        load =
          Run.Arrivals
            {
              sessions = 400;
              arrival = Run.Poisson 4_000.0;
              op_bytes = 256;
              conns = 8;
              retransmit = None;
            };
        plan = [ (fault_at, Run.Adversary (adversary_id b, b)) ];
      };
    expect =
      [
        mutated;
        progressed "no gateway progress before the fault";
        recovered "no gateway progress in the recovery window";
        new_primary;
      ];
  }

(* No adversary: the crash itself is the fault, and all four replicas are
   correct for the safety predicates. A state-writing service, so the
   post-crash suffix dirties pages and the Merkle diff has something to
   prune: the restarted replica must fetch the pages written while it
   was down, and only those. *)
let crash_restart ?(seed = 11) ?(speculative = false) () =
  let cfg = { (base_cfg ~speculative) with Config.rejoin_key_refresh = true } in
  (* The value must change every write — rewriting a key with identical
     bytes would leave the pages (and the Merkle diff) unchanged once
     every key has been touched. *)
  let put ~client ~seq =
    Printf.sprintf "put c%d-%d v%d.%s" client (seq mod 128) seq (String.make 56 'v')
  in
  let restarted c = Cluster.replica (Run.cluster c.result.Run.deployment 0) 0 in
  {
    name = (if speculative then "crash-restart-spec" else "crash-restart");
    spec =
      {
        (scenario_spec ~seed cfg ~op:put [ (fault_at, Run.Crash (Run.Replica 0, 1.0)) ]) with
        Run.groups = Run.Service (Service.kv_store ());
        warmup = 3.5;
      };
    expect =
      [
        progressed "no progress before the crash";
        ( "victim had no stable checkpoint to persist",
          fun c ->
            List.exists
              (fun r -> Replica.stable_checkpoint r > 0)
              (Run.retired c.result.Run.deployment) );
        ( "no progress while the victim was down",
          fun c ->
            match c.result.Run.marks with
            | crashed :: restarted :: _ -> restarted > crashed
            | _ -> false );
        recovered "no progress in the recovery window";
        ("crash of the primary never forced a view change", fun c -> c.view > 0);
        ( "restarted replica never started a rejoin transfer",
          fun c -> Util.Metrics.get c.correct ~node:0 ~layer:"pbft" "rejoin_transfers" > 0 );
        ( "rejoin transfer never completed",
          fun c -> Replica.recovery_completed_at (restarted c) <> None );
        (* The Merkle diff must have pruned the fetch: some pages moved
           (the suffix written during downtime), strictly fewer than a
           full transfer of every leaf. *)
        ( "rejoin moved no pages despite a written suffix",
          fun c -> Replica.transfer_pages_fetched (restarted c) > 0 );
        ( "rejoin fetched as many pages as a full transfer",
          fun c ->
            let r = restarted c in
            Replica.transfer_pages_full r > 0
            && Replica.transfer_pages_fetched r < Replica.transfer_pages_full r );
        ( "restarted replica never caught up to the working view",
          fun c -> Replica.view (restarted c) = c.view );
        (* Rejoin must reset the view-change watchdog backoff, or the
           revived replica re-enters agreement with a stale exponential
           timeout. *)
        ( "restarted replica kept stale view-change backoff",
          fun c -> Replica.view_change_attempts (restarted c) = 0 );
      ];
  }

(* Commit datagrams are dropped on every link, so pipelined replicas
   prepare — and speculatively execute — batches they can never commit;
   replies stay buffered, clients time out and multicast, the watchdogs
   fire, and the view change must roll the speculated suffix back before
   the new primary re-proposes it. The drop heals after the watchdogs
   have had time to elect view 1 (client timeout 0.15 s + view-change
   timeout 0.25 s, plus slack), so the re-proposed batches commit for
   real and the post-rollback agreement checks have teeth. *)
let vc_mid_speculation ?(seed = 11) () =
  let cfg =
    {
      (base_cfg ~speculative:true) with
      (* Status gossip replays missing certificates and would let a
         backup commit around the dropped datagrams. *)
      Config.status_period = 0.0;
    }
  in
  {
    name = "vc-mid-speculation";
    spec =
      scenario_spec ~seed cfg ~op:null_op
        [ (fault_at, Run.Drop "commit"); (fault_at +. 0.8, Run.Heal) ];
    expect =
      [
        progressed "no progress before the fault";
        recovered "no progress in the recovery window";
        ("commit starvation never forced a view change", fun c -> c.view > 0);
        ("no batch was executed speculatively", fun c -> counted c "speculative_executions" > 0);
        ( "the view change never rolled back a speculated batch",
          fun c -> counted c "rollbacks" > 0 );
      ];
  }

let suite ?(seed = 11) ~speculative () =
  List.map (behavior ~seed ~speculative) behaviors
  @ [ crash_restart ~seed ~speculative () ]
  @
  if speculative then [ vc_mid_speculation ~seed () ]
  else List.map (gateway ~seed) [ Adversary.Mute; Adversary.Equivocate ]

let run ?(trace = false) scenario =
  let result = Run.run { scenario.spec with Run.trace } in
  let d = result.Run.deployment in
  let faulty = Run.adversaries scenario.spec in
  let correct =
    List.filter (fun (k, _) -> not (List.mem k.Util.Metrics.node faulty)) result.Run.metrics
  in
  let view =
    List.fold_left
      (fun acc r -> if List.mem (Replica.id r) faulty then acc else Int.max acc (Replica.view r))
      0 (Run.live d)
  in
  let check =
    {
      result;
      correct;
      view;
      baseline = (match result.Run.marks with first :: _ -> first | [] -> 0);
      recovered = Run.progress d - result.Run.opened;
    }
  in
  let unmet = List.filter_map (fun (what, holds) -> if holds check then None else Some what) in
  (check, Lazy.force result.Run.failures @ unmet scenario.expect)

let render scenario (c, failures) =
  let pbft = Util.Metrics.total c.correct ~layer:"pbft"
  and statemgr = Util.Metrics.total c.correct ~layer:"statemgr" in
  Printf.sprintf
    "%-20s %-4s mutations=%-5d vc=%-3d dem_tr=%-2d rejoin_tr=%-2d pages=%d/%-4d demotions=%-2d \
     spec=%-5d rollbacks=%-2d auth_fail=%-4d nondet_rej=%-4d view=%-2d baseline=%-5d \
     recovered=%-5d%s"
    scenario.name
    (if failures = [] then "ok" else "FAIL")
    c.result.Run.mutations (pbft "view_changes") (pbft "demotion_transfers") (pbft "rejoin_transfers")
    (statemgr "transfer_pages_fetched") (statemgr "transfer_pages_full") (pbft "demotions")
    (pbft "speculative_executions") (pbft "rollbacks") (pbft "auth_failures")
    (pbft "nondet_rejects") c.view c.baseline c.recovered
    (match failures with
    | [] -> ""
    | fs -> "\n    " ^ String.concat "\n    " fs)
