(* Fault injection tour: the §2.3/§2.4 pathologies plus a primary failure
   driving a view change. Each section checks what it shows, and the
   example exits 1 if a check fails (`dune runtest` runs it).

   Run with:  dune exec examples/fault_injection.exe *)

open Pbft

let section title = Printf.printf "\n=== %s ===\n" title

let closed_loop cluster =
  let stop = ref false in
  Array.iter
    (fun cl ->
      let rec loop _ = if not !stop then Client.invoke cl (String.make 512 'x') loop in
      loop "")
    (Cluster.clients cluster);
  stop

(* Every check the tour makes; a failed one makes the example exit 1. *)
let failures = ref []

let expect ok what = if not ok then failures := what :: !failures

(* Replica counters live on the engine's metrics registry, one key per
   (replica id, layer, name), summed over the replica's incarnations. *)
let counted cluster ~node name =
  Util.Metrics.get (Util.Metrics.snapshot (Simnet.Engine.metrics (Cluster.engine cluster)))
    ~node ~layer:"pbft" name

let () =
  (* 1. Replica restart under MAC authenticators (§2.3): the recovering
     replica is deaf until session keys are rebroadcast. The restart
     falls between two rebroadcast ticks (as in Experiments.recovery);
     one that lands on a tick would hear the keys at once. *)
  section "replica restart (authenticator loss, §2.3)";
  let period = 1.0 and restart_at = 1.2 in
  let cfg = { (Config.default ~f:1) with Config.authenticator_rebroadcast = period } in
  let cluster = Cluster.create ~seed:5 ~num_clients:2 cfg in
  let stop = closed_loop cluster in
  Cluster.run cluster ~seconds:restart_at;
  Printf.printf "t=%.1fs restarting replica 2\n" restart_at;
  Cluster.restart_replica cluster 2;
  Cluster.run cluster ~seconds:(period +. 0.2);
  stop := true;
  (match Replica.recovery_completed_at (Cluster.replica cluster 2) with
  | Some t ->
    let stall = t -. restart_at in
    Printf.printf "replica 2 resumed at t=%.2fs (stall %.2fs, auth failures %d)\n" t stall
      (counted cluster ~node:2 "auth_failures");
    expect (stall >= period /. 2.0) "the restarted replica did not stall for its session keys"
  | None -> expect false "replica 2 never recovered");

  (* 2. One lost datagram stalls a replica until the next checkpoint
     (§2.4). *)
  section "big-request body loss (§2.4)";
  let cluster = Cluster.create ~seed:6 ~num_clients:2 (Config.default ~f:1) in
  let stop = closed_loop cluster in
  Simnet.Engine.schedule (Cluster.engine cluster) ~delay:0.5 (fun () ->
      print_endline "t=0.5s dropping one client->replica-3 request datagram";
      Simnet.Net.drop_next_matching (Cluster.net cluster) (fun ~src ~dst ~label ->
          src >= Types.client_addr_base && dst = 3 && label = "request"));
  Cluster.run cluster ~seconds:1.0;
  stop := true;
  let transfers =
    counted cluster ~node:3 "demotion_transfers" + counted cluster ~node:3 "rejoin_transfers"
  in
  Printf.printf "replica 3: state transfers=%d (stalled until checkpoint, then caught up)\n"
    transfers;
  expect (transfers >= 1) "replica 3 ran no state transfer";

  (* 3. Primary crash: backups time out and elect a new primary. *)
  section "primary failure -> view change";
  let cfg = { (Config.default ~f:1) with Config.view_change_timeout = 0.5 } in
  let cluster = Cluster.create ~seed:8 ~num_clients:2 cfg in
  let stop = closed_loop cluster in
  Cluster.run cluster ~seconds:0.5;
  print_endline "t=0.5s killing the primary (replica 0)";
  Replica.shutdown (Cluster.replica cluster 0);
  Cluster.run cluster ~seconds:1.5;
  stop := true;
  Array.iter
    (fun r ->
      if Replica.id r <> 0 then begin
        Printf.printf "replica %d: view=%d (primary is now replica %d), executed=%d\n"
          (Replica.id r) (Replica.view r)
          (Types.primary_of_view ~n:4 (Replica.view r))
          (Replica.executed_requests r);
        expect (Replica.view r >= 1) (Printf.sprintf "replica %d stayed in view 0" (Replica.id r))
      end)
    (Cluster.replicas cluster);
  let completed = Cluster.total_completed cluster in
  Printf.printf "client requests completed across the fault: %d\n" completed;
  match List.rev !failures with
  | [] -> ()
  | fs ->
    List.iter (fun f -> Printf.eprintf "fault_injection: FAILED: %s\n" f) fs;
    exit 1
