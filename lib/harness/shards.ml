type spec = {
  shards : int;
  cfg : Pbft.Config.t;
  seed : int;
  sessions : int;
  pool : int;
  rows : int;
  warmup : float;
  duration : float;
  cross_fraction : float;
  read_fraction : float;
  certs : bool;
  profile : Simnet.Net.profile;
  flush_bytes : int;
  flush_deadline : float;
  max_queue : int;
  prepare_timeout : float;
  tx_ttl : float;
}

let default_spec ?(shards = 1) () =
  {
    shards;
    cfg = Pbft.Config.default ~f:1;
    seed = 1;
    sessions = 96;
    pool = 8;
    rows = 512;
    warmup = 0.5;
    duration = 2.0;
    cross_fraction = 0.0;
    read_fraction = 0.7;
    certs = false;
    profile = Simnet.Net.lan_profile;
    flush_bytes = 2048;
    flush_deadline = 0.5e-3;
    max_queue = 512;
    prepare_timeout = 0.4;
    tx_ttl = 2.0;
  }

(* The replica reserves this many pages of middleware state ahead of the
   service region (see Replica.create); the service's partition starts
   right after it. *)
let service_first_page = 4
let service_app_pages = 128

let accounts_schema =
  "CREATE TABLE IF NOT EXISTS accounts (id INTEGER PRIMARY KEY, bal INTEGER, pad TEXT)"

let session_addr_base = 100_000
let rpc_addr = 99_990

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

type deployment = {
  d_spec : spec;
  d_engine : Simnet.Engine.t;
  d_edge : Simnet.Net.t;
  d_clusters : Pbft.Cluster.t array;
  d_door : Webgate.Frontdoor.t;
  d_topology : Relsql.Shard.topology;
  mutable d_rpc_seq : int;
}

let engine d = d.d_engine
let edge d = d.d_edge
let door d = d.d_door
let cluster d s = d.d_clusters.(s)
let topology d = d.d_topology

let key_on_shard d s =
  let rec find id =
    if id > d.d_spec.rows then invalid_arg "Shards.key_on_shard: shard owns no row"
    else if Int.equal (Relsql.Shard.shard_of_int d.d_topology id) s then id
    else find (id + 1)
  in
  find 1

let build spec =
  let engine = Simnet.Engine.create ~seed:spec.seed in
  let edge = Simnet.Net.create engine ~name:"edge" spec.profile in
  let topo = accounts_topology ~shards:spec.shards in
  (* The per-group threshold publics land here once the clusters exist;
     the 2PC wrappers capture the array and read it at execute time. *)
  let publics = Array.make spec.shards None in
  let verify ~shard ~client ~rq_id ~result ~cert =
    if not spec.certs then true
    else
      match publics.(shard) with
      | Some pk -> Pbft.Certificate.verify pk ~client ~rq_id ~result cert
      | None -> false
  in
  let service shard =
    Webgate.Frontdoor.wrap_service
      (Relsql.Twopc.wrap ~verify
         (Relsql.Pbft_service.service ~app_pages:service_app_pages ~schema:accounts_schema
            ~init:(init_sql topo ~shard ~rows:spec.rows) ()))
  in
  let clusters =
    Array.init spec.shards (fun s ->
        let net = Simnet.Net.create engine ~name:(Printf.sprintf "shard%d" s) spec.profile in
        let c =
          Pbft.Cluster.create ~num_clients:(spec.pool + 1) ~service:(service s)
            ~threshold_replies:spec.certs ~engine ~net spec.cfg
        in
        Simnet.Trace.set_enabled (Pbft.Cluster.trace c) false;
        publics.(s) <- Pbft.Cluster.threshold_public c;
        c)
  in
  let lanes =
    Array.map
      (fun c ->
        ( Array.init spec.pool (fun j -> Pbft.Cluster.client c (j + 1)),
          Pbft.Cluster.client c 0 ))
      clusters
  in
  let cfg =
    {
      Webgate.Frontdoor.connections = spec.pool;
      flush_bytes = spec.flush_bytes;
      flush_deadline = spec.flush_deadline;
      max_queue = spec.max_queue;
      max_sessions = spec.sessions + 64;
    }
  in
  let door =
    Webgate.Frontdoor.create_sharded ~cfg ~topology:topo ~prepare_timeout:spec.prepare_timeout
      ~tx_ttl:spec.tx_ttl ~classify:(service 0).Pbft.Service.classify_readonly ~engine ~net:edge
      ~lanes ()
  in
  {
    d_spec = spec;
    d_engine = engine;
    d_edge = edge;
    d_clusters = clusters;
    d_door = door;
    d_topology = topo;
    d_rpc_seq = 0;
  }

let run_for d seconds =
  Simnet.Engine.run ~until:(Simnet.Engine.now d.d_engine +. seconds) d.d_engine

let rpc ?(timeout = 30.0) d op =
  d.d_rpc_seq <- d.d_rpc_seq + 1;
  let rq_id = d.d_rpc_seq in
  let result = ref None in
  Simnet.Net.register d.d_edge rpc_addr (fun ~src:_ wire ->
      match Webgate.Frontdoor.decode_reply wire with
      | Some (Webgate.Frontdoor.Done, s, rid, res)
        when Int.equal s rpc_addr && Int.equal rid rq_id ->
        (result := Some res)
        [@trustlint.allow
          "harness-side convenience RPC: the result was agreed by the shard's \
           PBFT quorum (the door's Pbft.Client accepts f+1 MAC-verified \
           matching replies) and is only handed back to the test"]
      | Some _ | None -> ());
  let frame = Webgate.Frontdoor.encode_request ~session:rpc_addr ~req_id:rq_id ~op in
  let send () =
    Simnet.Net.send d.d_edge ~label:"rpc" ~src:rpc_addr ~dst:Webgate.Frontdoor.frontdoor_addr
      frame
  in
  send ();
  let deadline = Simnet.Engine.now d.d_engine +. timeout in
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

let pages_region_root pages =
  Statemgr.Merkle.root_of_leaves
    (List.init service_app_pages (fun i ->
         Statemgr.Merkle.page_digest (Statemgr.Pages.page pages (service_first_page + i))))

let region_root d ~shard ~replica =
  pages_region_root (Pbft.Replica.pages (Pbft.Cluster.replica d.d_clusters.(shard) replica))

(* --- the closed-loop session workload --- *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Smallest id after [k] (cyclically) owned by a different shard. *)
let partner_key d k =
  let rows = d.d_spec.rows in
  let home = Relsql.Shard.shard_of_int d.d_topology k in
  let rec scan step =
    if step > rows then k
    else
      let id = 1 + ((k - 1 + step) mod rows) in
      if Int.equal (Relsql.Shard.shard_of_int d.d_topology id) home then scan (step + 1) else id
  in
  scan 1

(* Deterministic operation mix: no RNG — the stream is a pure function of
   (session, seq), so a given spec replays bit-identically. *)
let op_for d ~session ~seq =
  let spec = d.d_spec in
  let mix = ((session * 7919) + (seq * 104729)) mod 1000 in
  let key = 1 + (((session * 613) + (seq * 769)) mod spec.rows) in
  if spec.shards > 1 && float_of_int mix < spec.cross_fraction *. 1000.0 then
    let k2 = partner_key d key in
    Printf.sprintf
      "UPDATE accounts SET bal = bal - 1 WHERE id = %d; UPDATE accounts SET bal = bal + 1 WHERE \
       id = %d"
      key k2
  else if
    ((session * 131) + (seq * 524287)) mod 1000 < int_of_float (spec.read_fraction *. 1000.0)
  then Printf.sprintf "SELECT bal FROM accounts WHERE id = %d" key
  else Printf.sprintf "UPDATE accounts SET bal = bal + 1 WHERE id = %d" key

type sess = {
  sd_id : int;
  sd_addr : int;
  mutable sd_seq : int;
  mutable sd_op : string;
  mutable sd_timer : Simnet.Engine.timer option;
  mutable sd_completed : int;
  mutable sd_errors : int;
}

let start_sessions d =
  let spec = d.d_spec in
  let stopped = ref false in
  let sessions =
    Array.init spec.sessions (fun i ->
        {
          sd_id = i + 1;
          sd_addr = session_addr_base + i;
          sd_seq = 0;
          sd_op = "";
          sd_timer = None;
          sd_completed = 0;
          sd_errors = 0;
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
        s.sd_timer <- Some (Simnet.Engine.timer d.d_engine ~delay:0.25 (fun () ->
            s.sd_timer <- None;
            send s))
      end
    in
    if delay > 0.0 then
      s.sd_timer <- Some (Simnet.Engine.timer d.d_engine ~delay (fun () ->
          s.sd_timer <- None;
          fire ()))
    else fire ()
  in
  let submit s =
    if not !stopped then begin
      s.sd_seq <- s.sd_seq + 1;
      s.sd_op <- op_for d ~session:s.sd_id ~seq:s.sd_seq;
      send s
    end
  in
  Array.iter
    (fun s ->
      Simnet.Net.register d.d_edge s.sd_addr (fun ~src:_ wire ->
          match Webgate.Frontdoor.decode_reply wire with
          | Some (status, sid, rid, result)
            when Int.equal sid s.sd_id && Int.equal rid s.sd_seq -> (
            match status with
            | Webgate.Frontdoor.Done ->
              cancel s;
              s.sd_completed <- s.sd_completed + 1;
              if has_prefix ~prefix:"error:" result then s.sd_errors <- s.sd_errors + 1;
              submit s
            | Webgate.Frontdoor.Shed ->
              (* Backpressure: retry the same request after a beat. *)
              send ~delay:2e-3 s)
          | Some _ | None -> ()))
    sessions;
  Array.iter submit sessions;
  let stop () =
    stopped := true;
    Array.iter cancel sessions
  in
  (sessions, stop)

type outcome = {
  so_vtps : float;
  so_completed : int;
  so_shard_tps : float array;
  so_shard_queue_peak : int array;
  so_cross_commits : int;
  so_cross_aborts : int;
  so_cross_timeouts : int;
  so_flushes_size : int;
  so_flushes_deadline : int;
  so_p50 : float;
  so_p95 : float;
  so_p99 : float;
  so_shed : int;
  so_cache_hits : int;
  so_errors : int;
}

let run spec =
  let d = build spec in
  let sessions, stop = start_sessions d in
  run_for d spec.warmup;
  let r = d.d_door in
  let c0 = Webgate.Frontdoor.completed r in
  let sc0 = Webgate.Frontdoor.shard_completed r in
  let xc0 = Webgate.Frontdoor.cross_commits r in
  let xa0 = Webgate.Frontdoor.cross_aborts r in
  let xt0 = Webgate.Frontdoor.cross_timeouts r in
  let shed0 = Webgate.Frontdoor.shed r in
  let hits0 = Webgate.Frontdoor.reply_cache_hits r in
  let fs0 = Webgate.Frontdoor.flushes_size r in
  let fd0 = Webgate.Frontdoor.flushes_deadline r in
  let err0 = Array.fold_left (fun acc s -> acc + s.sd_errors) 0 sessions in
  let t0 = Simnet.Engine.now d.d_engine in
  run_for d spec.duration;
  let span = Simnet.Engine.now d.d_engine -. t0 in
  stop ();
  let sc1 = Webgate.Frontdoor.shard_completed r in
  let lat = Webgate.Frontdoor.latency_stats r in
  let pct p = if Util.Stats.count lat > 0 then Util.Stats.percentile lat p else 0.0 in
  let outcome =
    {
      so_vtps =
        (if span > 0.0 then float_of_int (Webgate.Frontdoor.completed r - c0) /. span else 0.0);
      so_completed = Webgate.Frontdoor.completed r - c0;
      so_shard_tps =
        Array.init spec.shards (fun s ->
            if span > 0.0 then float_of_int (sc1.(s) - sc0.(s)) /. span else 0.0);
      so_shard_queue_peak = Webgate.Frontdoor.queue_peaks r;
      so_cross_commits = Webgate.Frontdoor.cross_commits r - xc0;
      so_cross_aborts = Webgate.Frontdoor.cross_aborts r - xa0;
      so_cross_timeouts = Webgate.Frontdoor.cross_timeouts r - xt0;
      so_flushes_size = Webgate.Frontdoor.flushes_size r - fs0;
      so_flushes_deadline = Webgate.Frontdoor.flushes_deadline r - fd0;
      so_p50 = pct 50.0;
      so_p95 = pct 95.0;
      so_p99 = pct 99.0;
      so_shed = Webgate.Frontdoor.shed r - shed0;
      so_cache_hits = Webgate.Frontdoor.reply_cache_hits r - hits0;
      so_errors = Array.fold_left (fun acc s -> acc + s.sd_errors) 0 sessions - err0;
    }
  in
  (outcome, d)

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
  let c = d.d_clusters.(shard) in
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

let byzantine_coordinator ?spec () =
  let spec =
    match spec with
    | Some s -> s
    | None ->
      {
        (default_spec ~shards:2 ()) with
        certs = true;
        rows = 64;
        cfg = { (Pbft.Config.default ~f:1) with view_change_timeout = 1.0 };
        prepare_timeout = 0.4;
        tx_ttl = 2.0;
      }
  in
  let d = build spec in
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  run_for d 0.2;
  let k0 = key_on_shard d 0 and k1 = key_on_shard d 1 in
  (* A healthy cross-shard transfer first: the protocol must work before
     we break it. *)
  let healthy = rpc d (transfer ~amount:10 k0 k1) in
  expect
    (has_prefix ~prefix:"s0=" healthy)
    (Printf.sprintf "healthy cross-shard transfer failed: %s" healthy);
  let b0 = rpc d (balance_sql k0) and b1 = rpc d (balance_sql k1) in
  let r = d.d_door in
  let commits0 = Webgate.Frontdoor.cross_commits r in
  let aborts0 = Webgate.Frontdoor.cross_aborts r in
  let timeouts0 = Webgate.Frontdoor.cross_timeouts r in
  let undo0 = Relsql.Twopc.aborts () in
  let group1 = d.d_clusters.(1) in
  let vc0 =
    Array.fold_left (fun acc rp -> acc + Pbft.Replica.view_changes rp) 0
      (Pbft.Cluster.replicas group1)
  in
  (* Mute the view-0 primary of shard 1's group mid-2PC: shard 0 will
     prepare and hold its undo snapshot; shard 1 stalls until its view
     change. *)
  let adv =
    Pbft.Adversary.install ~net:(Pbft.Cluster.net group1) ~cfg:spec.cfg
      (Pbft.Cluster.replica group1 0) Pbft.Adversary.Mute
  in
  let abort_reply = rpc d (transfer ~amount:7 k0 k1) in
  expect
    (has_prefix ~prefix:"error:2pc-aborted" abort_reply)
    (Printf.sprintf "doomed transfer did not abort: %s" abort_reply);
  (* Let shard 1's group view-change past the mute primary; the late
     prepare then completes and the door's deferred abort lands. *)
  run_for d 6.0;
  Pbft.Adversary.uninstall adv;
  run_for d 1.0;
  let commits_fault = Webgate.Frontdoor.cross_commits r - commits0 in
  let aborts_fault = Webgate.Frontdoor.cross_aborts r - aborts0 in
  let timeouts_fault = Webgate.Frontdoor.cross_timeouts r - timeouts0 in
  let undo_fault = Relsql.Twopc.aborts () - undo0 in
  let vc_fault =
    Array.fold_left (fun acc rp -> acc + Pbft.Replica.view_changes rp) 0
      (Pbft.Cluster.replicas group1)
    - vc0
  in
  expect (Int.equal commits_fault 0)
    (Printf.sprintf "a shard committed the doomed transfer (%d commits)" commits_fault);
  expect (aborts_fault >= 1) "coordinator recorded no abort";
  expect (timeouts_fault >= 1) "abort was not timeout-triggered";
  expect (undo_fault >= 1) "no copy-on-write undo restore happened";
  expect (vc_fault >= 1) "shard 1 never view-changed past its mute primary";
  let b0' = rpc d (balance_sql k0) and b1' = rpc d (balance_sql k1) in
  let balances_held = String.equal b0 b0' && String.equal b1 b1' in
  expect balances_held
    (Printf.sprintf "balances moved across the abort: (%s,%s) -> (%s,%s)" b0 b1 b0' b1');
  let states_agree = group_states_agree d ~shard:0 && group_states_agree d ~shard:1 in
  expect states_agree "replica service regions diverged within a group";
  (* Liveness: with the adversary gone and a correct primary in place, a
     fresh transfer must commit on both shards. *)
  let recovery = rpc d (transfer ~amount:3 k0 k1) in
  expect
    (has_prefix ~prefix:"s0=" recovery)
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
  Buffer.add_string buf "byzantine-coordinator-mid-2pc:\n";
  Buffer.add_string buf (Printf.sprintf "  doomed transfer reply   %s\n" r.bz_abort_reply);
  Buffer.add_string buf
    (Printf.sprintf "  cross commits/aborts    %d/%d (timeout-triggered %d)\n" r.bz_cross_commits
       r.bz_cross_aborts r.bz_cross_timeouts);
  Buffer.add_string buf (Printf.sprintf "  COW undo restores       %d\n" r.bz_undo_restores);
  Buffer.add_string buf (Printf.sprintf "  shard-1 view changes    %d\n" r.bz_view_changes);
  Buffer.add_string buf
    (Printf.sprintf "  balances held           %b\n" r.bz_balances_held);
  Buffer.add_string buf (Printf.sprintf "  group states agree      %b\n" r.bz_states_agree);
  Buffer.add_string buf (Printf.sprintf "  recovery transfer       %s\n" r.bz_recovery_reply);
  (match r.bz_failures with
  | [] -> Buffer.add_string buf "  PASS\n"
  | fs ->
    List.iter (fun f -> Buffer.add_string buf (Printf.sprintf "  FAIL %s\n" f)) fs);
  Buffer.contents buf
