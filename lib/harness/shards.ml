(* --- the accounts table --- *)

(* The replica reserves this many pages of middleware state ahead of the
   service region (see Replica.create); the service's partition starts
   right after it. *)
let service_first_page = 4
let service_app_pages = 128

let accounts_schema =
  "CREATE TABLE IF NOT EXISTS accounts (id INTEGER PRIMARY KEY, bal INTEGER, pad TEXT)"

let accounts_topology ~shards =
  Relsql.Shard.topology ~shards [ { Relsql.Shard.sr_table = "accounts"; sr_column = "id" } ]

(* Deterministic pre-population: the same total row set regardless of the
   shard count, each shard holding exactly the ids it owns — so the 1-,
   2- and 4-shard deployments answer identical queries identically. *)
let init_sql topo ~shard ~rows =
  let owned =
    List.filter
      (fun id -> Int.equal (Relsql.Shard.shard_of_int topo id) shard)
      (List.init rows (fun i -> i + 1))
  in
  let rec chunks = function
    | [] -> []
    | l -> List.filteri (fun i _ -> i < 32) l :: chunks (List.filteri (fun i _ -> i >= 32) l)
  in
  List.map
    (fun batch ->
      "INSERT INTO accounts (id, bal, pad) VALUES "
      ^ String.concat ", "
          (List.map (fun id -> Printf.sprintf "(%d, 100, 'p%d')" id id) batch))
    (chunks owned)

(* Smallest id after [k] (cyclically) owned by a different shard. *)
let partner_key topo ~rows k =
  let home = Relsql.Shard.shard_of_int topo k in
  let rec scan step =
    if step > rows then k
    else
      let id = 1 + ((k - 1 + step) mod rows) in
      if Int.equal (Relsql.Shard.shard_of_int topo id) home then scan (step + 1) else id
  in
  scan 1

(* Deterministic operation mix: no RNG — the stream is a pure function of
   (session, seq), so a given spec replays bit-identically. *)
let mix ~shards ~rows ~cross ~reads =
  let topo = accounts_topology ~shards in
  fun ~client:session ~seq ->
    let mix = ((session * 7919) + (seq * 104729)) mod 1000 in
    let key = 1 + (((session * 613) + (seq * 769)) mod rows) in
    if shards > 1 && float_of_int mix < cross *. 1000.0 then
      Printf.sprintf
        "UPDATE accounts SET bal = bal - 1 WHERE id = %d; UPDATE accounts SET bal = bal + 1 WHERE \
         id = %d"
        key (partner_key topo ~rows key)
    else if ((session * 131) + (seq * 524287)) mod 1000 < int_of_float (reads *. 1000.0) then
      Printf.sprintf "SELECT bal FROM accounts WHERE id = %d" key
    else Printf.sprintf "UPDATE accounts SET bal = bal + 1 WHERE id = %d" key

let spec ?(shards = 1) ?(sessions = 96) ?(rows = 512) ?(cross = 0.0) ?(certs = false) () =
  let topology = accounts_topology ~shards in
  let service shard =
    Relsql.Pbft_service.service ~app_pages:service_app_pages ~schema:accounts_schema
      ~init:(init_sql topology ~shard ~rows) ()
  in
  {
    (Run.closed (Pbft.Config.default ~f:1)) with
    Run.groups = Run.Sharded { topology; service; certs };
    door =
      Some
        {
          Webgate.Frontdoor.connections = 8;
          flush_bytes = 2048;
          flush_deadline = 0.5e-3;
          max_queue = 512;
          max_sessions = sessions + 64;
        };
    load = Run.Sessions { sessions; op = mix ~shards ~rows ~cross ~reads:0.7 };
  }

let key_on_shard d s =
  let topo = Run.topology d in
  if s < 0 || s >= Relsql.Shard.shards topo then invalid_arg "Shards.key_on_shard: no such shard";
  let rec find id = if Int.equal (Relsql.Shard.shard_of_int topo id) s then id else find (id + 1) in
  find 1

let pages_region_root pages =
  Statemgr.Merkle.root_of_leaves
    (List.init service_app_pages (fun i ->
         Statemgr.Merkle.page_digest (Statemgr.Pages.page pages (service_first_page + i))))

let region_root d ~shard ~replica =
  pages_region_root (Pbft.Replica.pages (Pbft.Cluster.replica (Run.cluster d shard) replica))

(* --- the Byzantine-coordinator fault scenario --- *)

type byz_report = {
  bz_abort_reply : string;
  bz_cross_commits : int;
  bz_cross_aborts : int;
  bz_cross_timeouts : int;
  bz_undo_restores : int;
  bz_view_changes : int;
  bz_balances_held : bool;
  bz_states_agree : bool;
  bz_recovery_reply : string;
  bz_failures : string list;
}

let transfer ~amount k0 k1 =
  Printf.sprintf
    "UPDATE accounts SET bal = bal - %d WHERE id = %d; UPDATE accounts SET bal = bal + %d WHERE \
     id = %d"
    amount k0 amount k1

let balance_sql k = Printf.sprintf "SELECT bal FROM accounts WHERE id = %d" k

(* Replicas at the group's frontier must agree on the service region; a
   straggler still catching up after the fault window is not a safety
   violation, so compare only replicas at the maximum executed seq. *)
let group_states_agree d ~shard =
  let c = Run.cluster d shard in
  let n = (Pbft.Cluster.config c).Pbft.Config.n in
  let frontier =
    Array.fold_left
      (fun acc r -> Int.max acc (Pbft.Replica.last_executed r))
      0 (Pbft.Cluster.replicas c)
  in
  let roots =
    List.filter_map
      (fun i ->
        let r = Pbft.Cluster.replica c i in
        if Int.equal (Pbft.Replica.last_executed r) frontier then
          Some (region_root d ~shard ~replica:i)
        else None)
      (List.init n Fun.id)
  in
  match roots with
  | [] -> false
  | first :: rest -> List.length roots >= 2 && List.for_all (String.equal first) rest

let byzantine_coordinator ?(seed = 1) () =
  let spec =
    {
      (spec ~shards:2 ~rows:64 ~certs:true ()) with
      seed;
      cfg = { (Pbft.Config.default ~f:1) with view_change_timeout = 1.0 };
    }
  in
  let d = Run.build spec in
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  Run.run_for d 0.2;
  let k0 = key_on_shard d 0 and k1 = key_on_shard d 1 in
  (* A healthy cross-shard transfer first: the protocol must work before
     we break it. *)
  let healthy = Run.rpc d (transfer ~amount:10 k0 k1) in
  expect
    (String.starts_with ~prefix:"s0=" healthy)
    (Printf.sprintf "healthy cross-shard transfer failed: %s" healthy);
  let b0 = Run.rpc d (balance_sql k0) and b1 = Run.rpc d (balance_sql k1) in
  let snapshot () = Util.Metrics.snapshot (Simnet.Engine.metrics (Run.engine d)) in
  let before = snapshot () in
  let undo0 = Relsql.Twopc.aborts () in
  let group1 = Run.cluster d 1 in
  (* Read off group 1's replicas, not the registry: every group registers
     its replicas under the same ids, so a registry total would count
     shard 0's view changes too. *)
  let top_view () =
    Array.fold_left (fun acc rp -> Int.max acc (Pbft.Replica.view rp)) 0
      (Pbft.Cluster.replicas group1)
  in
  let view0 = top_view () in
  (* Mute the view-0 primary of shard 1's group mid-2PC: shard 0 will
     prepare and hold its undo snapshot; shard 1 stalls until its view
     change. *)
  let adv =
    Pbft.Adversary.install ~net:(Pbft.Cluster.net group1) ~cfg:spec.Run.cfg
      (Pbft.Cluster.replica group1 0) Pbft.Adversary.Mute
  in
  let abort_reply = Run.rpc d (transfer ~amount:7 k0 k1) in
  expect
    (String.starts_with ~prefix:"error:2pc-aborted" abort_reply)
    (Printf.sprintf "doomed transfer did not abort: %s" abort_reply);
  (* Let shard 1's group view-change past the mute primary; the late
     prepare then completes and the door's deferred abort lands. *)
  Run.run_for d 6.0;
  Pbft.Adversary.uninstall adv;
  Run.run_for d 1.0;
  let fault = Util.Metrics.since before (snapshot ()) in
  let cross name = Util.Metrics.get fault ~node:Webgate.Frontdoor.frontdoor_addr ~layer:"shards" name in
  let commits_fault = cross "cross_commits" in
  let aborts_fault = cross "cross_aborts" in
  let timeouts_fault = cross "cross_timeouts" in
  let undo_fault = Relsql.Twopc.aborts () - undo0 in
  let vc_fault = top_view () - view0 in
  expect (Int.equal commits_fault 0)
    (Printf.sprintf "a shard committed the doomed transfer (%d commits)" commits_fault);
  expect (aborts_fault >= 1) "coordinator recorded no abort";
  expect (timeouts_fault >= 1) "abort was not timeout-triggered";
  expect (undo_fault >= 1) "no copy-on-write undo restore happened";
  expect (vc_fault >= 1) "shard 1 never view-changed past its mute primary";
  let b0' = Run.rpc d (balance_sql k0) and b1' = Run.rpc d (balance_sql k1) in
  let balances_held = String.equal b0 b0' && String.equal b1 b1' in
  expect balances_held
    (Printf.sprintf "balances moved across the abort: (%s,%s) -> (%s,%s)" b0 b1 b0' b1');
  let states_agree = group_states_agree d ~shard:0 && group_states_agree d ~shard:1 in
  expect states_agree "replica service regions diverged within a group";
  (* Liveness: with the adversary gone and a correct primary in place, a
     fresh transfer must commit on both shards. *)
  let recovery = Run.rpc d (transfer ~amount:3 k0 k1) in
  expect
    (String.starts_with ~prefix:"s0=" recovery)
    (Printf.sprintf "post-fault transfer did not commit: %s" recovery);
  {
    bz_abort_reply = abort_reply;
    bz_cross_commits = commits_fault;
    bz_cross_aborts = aborts_fault;
    bz_cross_timeouts = timeouts_fault;
    bz_undo_restores = undo_fault;
    bz_view_changes = vc_fault;
    bz_balances_held = balances_held;
    bz_states_agree = states_agree;
    bz_recovery_reply = recovery;
    bz_failures = List.rev !failures;
  }

let render_byz r =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "byzantine-coordinator-mid-2pc:";
  line "  doomed transfer reply   %s" r.bz_abort_reply;
  line "  cross commits/aborts    %d/%d (timeout-triggered %d)" r.bz_cross_commits
    r.bz_cross_aborts r.bz_cross_timeouts;
  line "  COW undo restores       %d" r.bz_undo_restores;
  line "  shard-1 view changes    %d" r.bz_view_changes;
  line "  balances held           %b" r.bz_balances_held;
  line "  group states agree      %b" r.bz_states_agree;
  line "  recovery transfer       %s" r.bz_recovery_reply;
  (match r.bz_failures with
  | [] -> line "  PASS"
  | fs -> List.iter (line "  FAIL %s") fs);
  Buffer.contents buf
