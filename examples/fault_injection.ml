(* Fault injection tour: the §2.3/§2.4 pathologies plus a primary failure
   driving a view change.

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

let () =
  (* 1. Replica restart under MAC authenticators (§2.3): the recovering
     replica is deaf until session keys are rebroadcast. *)
  section "replica restart (authenticator loss, §2.3)";
  let cfg = { (Config.default ~f:1) with Config.authenticator_rebroadcast = 1.0 } in
  let cluster = Cluster.create ~seed:5 ~num_clients:4 cfg in
  let stop = closed_loop cluster in
  Cluster.run cluster ~seconds:1.0;
  Printf.printf "t=1.0s restarting replica 2\n";
  Cluster.restart_replica cluster 2;
  Cluster.run cluster ~seconds:4.0;
  stop := true;
  let r2 = Cluster.replica cluster 2 in
  (* Replica counters live on the engine's metrics registry, one key per
     (replica id, layer, name), summed over the replica's incarnations. *)
  let counted cluster ~node name =
    Util.Metrics.get (Util.Metrics.snapshot (Simnet.Engine.metrics (Cluster.engine cluster)))
      ~node ~layer:"pbft" name
  in
  (match Replica.recovery_completed_at r2 with
  | Some t -> Printf.printf "replica 2 resumed at t=%.2fs (stall %.2fs, auth failures %d)\n" t (t -. 1.0)
                (counted cluster ~node:2 "auth_failures")
  | None -> print_endline "replica 2 never recovered (unexpected)");

  (* 2. One lost datagram stalls a replica until the next checkpoint
     (§2.4). *)
  section "big-request body loss (§2.4)";
  let cluster = Cluster.create ~seed:6 ~num_clients:4 (Config.default ~f:1) in
  let stop = closed_loop cluster in
  Simnet.Engine.schedule (Cluster.engine cluster) ~delay:0.5 (fun () ->
      print_endline "t=0.5s dropping one client->replica-3 request datagram";
      ignore
        (Simnet.Net.drop_next_matching (Cluster.net cluster) (fun ~src ~dst ~label ->
             src >= Types.client_addr_base && dst = 3 && label = "request")));
  Cluster.run cluster ~seconds:3.0;
  stop := true;
  Printf.printf "replica 3: state transfers=%d (stalled until checkpoint, then caught up)\n"
    (counted cluster ~node:3 "demotion_transfers" + counted cluster ~node:3 "rejoin_transfers");

  (* 3. Primary crash: backups time out and elect a new primary. *)
  section "primary failure -> view change";
  let cfg = { (Config.default ~f:1) with Config.view_change_timeout = 0.5 } in
  let cluster = Cluster.create ~seed:8 ~num_clients:4 cfg in
  let stop = closed_loop cluster in
  Cluster.run cluster ~seconds:0.5;
  print_endline "t=0.5s killing the primary (replica 0)";
  Replica.shutdown (Cluster.replica cluster 0);
  Cluster.run cluster ~seconds:4.0;
  stop := true;
  Array.iter
    (fun r ->
      if Replica.id r <> 0 then
        Printf.printf "replica %d: view=%d (primary is now replica %d), executed=%d\n"
          (Replica.id r) (Replica.view r)
          (Types.primary_of_view ~n:4 (Replica.view r))
          (Replica.executed_requests r))
    (Cluster.replicas cluster);
  let completed = Cluster.total_completed cluster in
  Printf.printf "client requests completed across the fault: %d\n" completed
