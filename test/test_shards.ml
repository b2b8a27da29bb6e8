(* Tests for the sharded deployment: partitioning, statement routing,
   the BFT 2PC wrapper, the sharded front door, and the qcheck
   serial-equivalence property. *)

let qcheck = QCheck_alcotest.to_alcotest

module Shard = Relsql.Shard
module Twopc = Relsql.Twopc
module Shards = Harness.Shards
module Run = Harness.Run

let topo2 = Shard.topology ~shards:2 [ { Shard.sr_table = "accounts"; sr_column = "id" } ]
let topo4 = Shard.topology ~shards:4 [ { Shard.sr_table = "accounts"; sr_column = "id" } ]

(* --- partitioning --- *)

let test_hash_determinism () =
  let topo2' = Shard.topology ~shards:2 [ { Shard.sr_table = "accounts"; sr_column = "id" } ] in
  for id = 1 to 200 do
    Alcotest.(check int) "stable across topologies" (Shard.shard_of_int topo2 id)
      (Shard.shard_of_int topo2' id);
    let s = Shard.shard_of_int topo4 id in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4)
  done;
  (* Integral reals coerce to the integer hash: `id = 5` ≡ `id = 5.0`. *)
  Alcotest.(check int) "real/int coercion"
    (Shard.shard_of_value topo4 (Relsql.Value.Int 5))
    (Shard.shard_of_value topo4 (Relsql.Value.Real 5.0))

let test_hash_distribution () =
  let counts = Array.make 4 0 in
  for id = 1 to 512 do
    let s = Shard.shard_of_int topo4 id in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      if c < 64 then Alcotest.failf "shard %d owns only %d of 512 rows" s c)
    counts

(* --- statement splitting --- *)

let test_split_statements () =
  Alcotest.(check int) "two pieces" 2 (List.length (Shard.split_statements "SELECT 1; SELECT 2"));
  Alcotest.(check int) "trailing semicolon" 1 (List.length (Shard.split_statements "SELECT 1;"));
  Alcotest.(check int) "semicolon in string" 1
    (List.length (Shard.split_statements "INSERT INTO t (a) VALUES ('x;y')"));
  Alcotest.(check int) "escaped quote" 1
    (List.length (Shard.split_statements "INSERT INTO t (a) VALUES ('it''s; fine')"));
  Alcotest.(check int) "line comment hides semicolon" 1
    (List.length (Shard.split_statements "SELECT 1 -- not; split\n"));
  Alcotest.(check int) "block comment hides semicolon" 1
    (List.length (Shard.split_statements "SELECT /* a;b */ 1"))

(* --- routing --- *)

let shard_of k = Shard.shard_of_int topo2 k

let key_for topo2 shard =
  let rec find id = if Shard.shard_of_int topo2 id = shard then id else find (id + 1) in
  find 1

let test_classify () =
  let k0 = key_for topo2 0 and k1 = key_for topo2 1 in
  (match Shard.classify topo2 (Printf.sprintf "SELECT bal FROM accounts WHERE id = %d" k0) with
  | Shard.Single s -> Alcotest.(check int) "pinned select" (shard_of k0) s
  | Shard.Cross _ -> Alcotest.fail "pinned select classified cross");
  (match
     Shard.classify topo2
       (Printf.sprintf
          "UPDATE accounts SET bal = bal - 1 WHERE id = %d; UPDATE accounts SET bal = bal + 1 \
           WHERE id = %d"
          k0 k1)
   with
  | Shard.Cross [ 0; 1 ] -> ()
  | r -> Alcotest.failf "transfer route: %s" (Shard.route_key r));
  (match Shard.classify topo2 "SELECT id FROM accounts" with
  | Shard.Cross [ 0; 1 ] -> ()
  | r -> Alcotest.failf "scatter select route: %s" (Shard.route_key r));
  (match Shard.classify topo2 "CREATE TABLE t (a INTEGER)" with
  | Shard.Cross [ 0; 1 ] -> ()
  | r -> Alcotest.failf "ddl route: %s" (Shard.route_key r));
  (match Shard.classify topo2 "not sql at all" with
  | Shard.Single 0 -> ()
  | r -> Alcotest.failf "unparseable route: %s" (Shard.route_key r));
  Alcotest.(check string) "route_key single" "1" (Shard.route_key (Shard.Single 1));
  Alcotest.(check string) "route_key cross" "0,3" (Shard.route_key (Shard.Cross [ 0; 3 ]))

let test_plan () =
  let k0 = key_for topo2 0 and k1 = key_for topo2 1 in
  let sql =
    Printf.sprintf
      "UPDATE accounts SET bal = bal - 1 WHERE id = %d; UPDATE accounts SET bal = bal + 1 WHERE \
       id = %d"
      k0 k1
  in
  match Shard.plan topo2 sql with
  | [ (0, s0); (1, s1) ] ->
    Alcotest.(check bool) "shard 0 piece mentions its key" true
      (Shard.classify topo2 s0 = Shard.Single 0);
    Alcotest.(check bool) "shard 1 piece mentions its key" true
      (Shard.classify topo2 s1 = Shard.Single 1)
  | l -> Alcotest.failf "plan shape: %d entries" (List.length l)

(* --- 2PC op codec --- *)

let test_twopc_codec () =
  let ops =
    [
      Twopc.Prepare { tx = 42; deadline = 17.5; shards = [ 0; 2; 3 ]; script = "SELECT 1" };
      Twopc.Commit
        {
          tx = 42;
          votes =
            [
              { Twopc.v_shard = 0; v_client = 3; v_rq_id = 9; v_result = "2pc-prepared:42:ok:1";
                v_cert = "CERT" };
              { Twopc.v_shard = 2; v_client = 1; v_rq_id = 4; v_result = "2pc-prepared:42:ok:2";
                v_cert = "" };
            ];
        };
      Twopc.Abort { tx = 7; reason = "timeout" };
    ]
  in
  List.iter
    (fun op ->
      let wire = Twopc.encode_op op in
      Alcotest.(check bool) "magic recognized" true (Twopc.is_twopc_op wire);
      match Twopc.decode_op wire with
      | Some op' -> Alcotest.(check bool) "roundtrip" true (op = op')
      | None -> Alcotest.fail "decode failed")
    ops;
  Alcotest.(check bool) "garbage not 2pc" false (Twopc.is_twopc_op "SELECT 1");
  Alcotest.(check bool) "garbage decode" true (Twopc.decode_op "X2P1garbage" = None);
  Alcotest.(check bool) "truncated decode" true
    (Twopc.decode_op (String.sub (Twopc.encode_op (List.hd ops)) 0 8) = None)

(* --- deployment helpers --- *)

let small_spec ?(sessions = 8) ?(cross = 0.0) () =
  {
    (Shards.spec ~shards:2 ~sessions ~rows:32 ~cross ()) with
    Run.warmup = 0.2;
    duration = 0.5;
  }

(* The deployment's registry, read now. *)
let metrics d = Util.Metrics.snapshot (Simnet.Engine.metrics (Run.engine d))

let cross_count snap name =
  Util.Metrics.get snap ~node:Webgate.Frontdoor.frontdoor_addr ~layer:"shards" name

(* --- 2PC abort restores state via COW undo --- *)

let test_abort_restores_state () =
  let d = Run.build (small_spec ()) in
  Run.run_for d 0.2;
  let k1 = Shards.key_on_shard d 1 in
  let bal () = Run.rpc d (Printf.sprintf "SELECT bal FROM accounts WHERE id = %d" k1) in
  let before = bal () in
  let aborts0 = Twopc.aborts () in
  let xa0 = cross_count (metrics d) "cross_aborts" in
  (* Shard 1's piece succeeds and prepares; shard 0's piece (unlisted
     table routes to shard 0) errors and votes abort — shard 1 must roll
     back its applied update. *)
  let doomed =
    Run.rpc d
      (Printf.sprintf
         "UPDATE accounts SET bal = bal - 1 WHERE id = %d; UPDATE nosuch SET a = 1" k1)
  in
  Alcotest.(check bool) "doomed reply is an abort" true
    (String.length doomed >= 17 && String.equal (String.sub doomed 0 17) "error:2pc-aborted");
  Run.run_for d 0.5;
  Alcotest.(check string) "balance restored" before (bal ());
  Alcotest.(check bool) "undo restore counted" true (Twopc.aborts () > aborts0);
  Alcotest.(check bool) "door abort counted" true (cross_count (metrics d) "cross_aborts" > xa0);
  (* The shard is fully released: a fresh cross-shard transfer commits. *)
  let k0 = Shards.key_on_shard d 0 in
  let recovery =
    Run.rpc d
      (Printf.sprintf
         "UPDATE accounts SET bal = bal - 2 WHERE id = %d; UPDATE accounts SET bal = bal + 2 \
          WHERE id = %d"
         k0 k1)
  in
  Alcotest.(check bool) "recovery commits" true
    (String.length recovery >= 3 && String.equal (String.sub recovery 0 3) "s0=")

(* --- reply cache keyed on (route, id) --- *)

let test_reply_cache_route_keyed () =
  let d = Run.build (small_spec ()) in
  Run.run_for d 0.2;
  let engine = Run.engine d in
  let net = Run.edge d in
  let hits () =
    Util.Metrics.get (metrics d) ~node:Webgate.Frontdoor.frontdoor_addr ~layer:"webgate"
      "reply_cache_hits"
  in
  let k0 = Shards.key_on_shard d 0 and k1 = Shards.key_on_shard d 1 in
  let addr = 98_765 in
  let last = ref None in
  Simnet.Net.register net addr (fun ~src:_ wire ->
      match Webgate.Frontdoor.decode_reply wire with
      | Some (Webgate.Frontdoor.Done, _, _, res) -> last := Some res
      | Some _ | None -> ());
  let ask op =
    last := None;
    let frame = Webgate.Frontdoor.encode_request ~session:7 ~req_id:1 ~op in
    Simnet.Net.send net ~label:"t" ~src:addr ~dst:Webgate.Frontdoor.frontdoor_addr frame;
    let deadline = Simnet.Engine.now engine +. 5.0 in
    while Option.is_none !last && Simnet.Engine.now engine < deadline do
      Run.run_for d 0.05
    done;
    match !last with Some x -> x | None -> Alcotest.fail "no reply"
  in
  let single = Printf.sprintf "UPDATE accounts SET bal = bal + 1 WHERE id = %d" k0 in
  let first = ask single in
  let hits0 = hits () in
  (* Identical retransmission: served from the cache, not re-executed. *)
  let again = ask single in
  Alcotest.(check string) "retransmit replayed" first again;
  Alcotest.(check bool) "cache hit counted" true (hits () > hits0);
  (* Same request id, different route: the stale single-shard reply must
     NOT satisfy a cross-shard request. *)
  let cross =
    Printf.sprintf
      "UPDATE accounts SET bal = bal - 1 WHERE id = %d; UPDATE accounts SET bal = bal + 1 WHERE \
       id = %d"
      k0 k1
  in
  let crossed = ask cross in
  Alcotest.(check bool) "route change bypasses cache" false (String.equal crossed first);
  Alcotest.(check bool) "cross reply committed" true
    (String.length crossed >= 3 && String.equal (String.sub crossed 0 3) "s0=")

(* --- queued cross-shard transactions --- *)

(* Cross-shard transactions serialize through the coordinator; ones that
   arrive while another is in flight wait in its queue and must all
   commit — without a retransmission to paper over a dropped one. *)
let test_queued_cross_commit () =
  let d = Run.build (small_spec ()) in
  Run.run_for d 0.2;
  let net = Run.edge d in
  let k0 = Shards.key_on_shard d 0 and k1 = Shards.key_on_shard d 1 in
  let addr = 97_654 in
  let answered = ref [] in
  Simnet.Net.register net addr (fun ~src:_ wire ->
      match Webgate.Frontdoor.decode_reply wire with
      | Some (Webgate.Frontdoor.Done, session, _, result) -> answered := (session, result) :: !answered
      | Some _ | None -> ());
  let commits0 = cross_count (metrics d) "cross_commits" in
  let sessions = [ 31; 32; 33 ] in
  List.iter
    (fun session ->
      let op =
        Printf.sprintf
          "UPDATE accounts SET bal = bal - 1 WHERE id = %d; UPDATE accounts SET bal = bal + 1 \
           WHERE id = %d"
          k0 k1
      in
      Simnet.Net.send net ~label:"t" ~src:addr ~dst:Webgate.Frontdoor.frontdoor_addr
        (Webgate.Frontdoor.encode_request ~session ~req_id:1 ~op))
    sessions;
  Run.run_for d 3.0;
  Alcotest.(check (list int)) "every session answered" sessions
    (List.sort Int.compare (List.map fst !answered));
  List.iter
    (fun (_, result) ->
      Alcotest.(check bool) "committed" true
        (String.length result >= 3 && String.equal (String.sub result 0 3) "s0="))
    !answered;
  Alcotest.(check int) "three commits" 3 (cross_count (metrics d) "cross_commits" - commits0)

(* --- session ops stay opaque ---

   Every lane batch is a coalesced op, singletons included, so an op
   whose bytes happen to form a coalesced batch is executed as one
   literal op of its sender. Forwarding it raw would let the service
   wrapper unpack it and run the inner op as another session. *)

let test_session_ops_opaque () =
  let cluster =
    Pbft.Cluster.create ~seed:7 ~num_clients:2
      ~service:(Webgate.Frontdoor.wrap_service (Pbft.Service.session_kv ()))
      (Pbft.Config.default ~f:1)
  in
  let net = Pbft.Cluster.net cluster in
  let _door =
    Webgate.Frontdoor.create_sharded
      ~cfg:
        {
          Webgate.Frontdoor.connections = 1;
          flush_bytes = 64;
          flush_deadline = 0.002;
          max_queue = 64;
          max_sessions = 16;
        }
      ~topology:(Shard.topology ~shards:1 []) ~prepare_timeout:0.4 ~tx_ttl:2.0
      ~classify:(fun _ -> false) ~engine:(Pbft.Cluster.engine cluster) ~net
      ~lanes:[| ([| Pbft.Cluster.client cluster 1 |], Pbft.Cluster.client cluster 0) |]
      ()
  in
  let addr = 97_531 in
  let replies = Hashtbl.create 8 in
  Simnet.Net.register net addr (fun ~src:_ wire ->
      match Webgate.Frontdoor.decode_reply wire with
      | Some (Webgate.Frontdoor.Done, session, req_id, result) ->
        Hashtbl.replace replies (session, req_id) result
      | Some _ | None -> ());
  let ask ~session ~req_id op =
    Simnet.Net.send net ~label:"t" ~src:addr ~dst:Webgate.Frontdoor.frontdoor_addr
      (Webgate.Frontdoor.encode_request ~session ~req_id ~op);
    Pbft.Cluster.run cluster ~seconds:0.5;
    match Hashtbl.find_opt replies (session, req_id) with
    | Some r -> r
    | None -> Alcotest.failf "no reply to session %d request %d" session req_id
  in
  let victim = 9 and sender = 5 in
  Alcotest.(check string) "victim's put" "ok" (ask ~session:victim ~req_id:1 "sput k mine");
  let forged = Webgate.Frontdoor.encode_coalesced [ (victim, "sput k stolen") ] in
  Alcotest.(check string) "forged batch runs as one unknown op" "error: bad op"
    (ask ~session:sender ~req_id:1 forged);
  Alcotest.(check string) "victim's key untouched" "mine" (ask ~session:victim ~req_id:2 "sget k");
  Alcotest.(check string) "sender wrote nothing" "" (ask ~session:sender ~req_id:2 "skeys")

(* --- serial-equivalence property ---

   Any interleaving of single- and cross-shard transactions accepted by
   the deployment yields per-shard Merkle roots identical to a serial
   reference execution of the same stream against bare wrapped service
   instances (one per shard, no PBFT, no door). *)

let ref_verify ~shard:_ ~client:_ ~rq_id:_ ~result:_ ~cert:_ = true

type refshard = { rs_exec : op:string -> string; rs_pages : Statemgr.Pages.t }

let make_reference topo rows =
  let svc shard =
    Twopc.wrap ~verify:ref_verify
      (Relsql.Pbft_service.service ~app_pages:Shards.service_app_pages
         ~schema:Shards.accounts_schema ~init:(Shards.init_sql topo ~shard ~rows) ())
  in
  let ts = ref 0.0 in
  Array.init (Shard.shards topo) (fun shard ->
      let s = svc shard in
      let pages =
        Statemgr.Pages.create ~page_size:s.Pbft.Service.page_size
          ~num_pages:(Shards.service_first_page + s.Pbft.Service.app_pages) ()
      in
      let inst = s.Pbft.Service.make pages ~first_page:Shards.service_first_page in
      let exec ~op =
        ts := !ts +. 1.0;
        fst (inst.Pbft.Service.execute ~op ~client:0 ~timestamp:!ts ~nondet:"" ~readonly:false)
      in
      { rs_exec = exec; rs_pages = pages })

(* Drive one op through the reference exactly as the door would:
   single-shard ops pass through; cross-shard ops prepare every involved
   shard, then commit iff every vote carries the prepared prefix, else
   abort everywhere. *)
let reference_apply topo refs tx op =
  match Shard.classify topo op with
  | Shard.Single s -> ignore (refs.(s).rs_exec ~op : string)
  | Shard.Cross shards ->
    incr tx;
    let plan = Shard.plan topo op in
    let votes =
      List.map
        (fun (shard, script) ->
          let reply =
            refs.(shard).rs_exec
              ~op:(Twopc.encode_op (Twopc.Prepare { tx = !tx; deadline = 1e18; shards; script }))
          in
          (shard, reply))
        plan
    in
    let prefix = Twopc.prepared_prefix !tx in
    let all_prepared =
      List.for_all
        (fun (_, reply) ->
          String.length reply >= String.length prefix
          && String.equal (String.sub reply 0 (String.length prefix)) prefix)
        votes
    in
    if all_prepared then
      let vs =
        List.map
          (fun (shard, reply) ->
            { Twopc.v_shard = shard; v_client = 0; v_rq_id = 0; v_result = reply; v_cert = "" })
          votes
      in
      List.iter
        (fun (shard, _) ->
          ignore (refs.(shard).rs_exec ~op:(Twopc.encode_op (Twopc.Commit { tx = !tx; votes = vs }))
                  : string))
        votes
    else
      List.iter
        (fun (shard, _) ->
          ignore
            (refs.(shard).rs_exec ~op:(Twopc.encode_op (Twopc.Abort { tx = !tx; reason = "vote" }))
             : string))
        votes

let op_gen rows =
  let open QCheck.Gen in
  let key = map (fun k -> 1 + (abs k mod rows)) small_int in
  frequency
    [
      (4, map (fun k -> Printf.sprintf "SELECT bal FROM accounts WHERE id = %d" k) key);
      (4, map (fun k -> Printf.sprintf "UPDATE accounts SET bal = bal + 1 WHERE id = %d" k) key);
      ( 3,
        map2
          (fun k1 k2 ->
            Printf.sprintf
              "UPDATE accounts SET bal = bal - 1 WHERE id = %d; UPDATE accounts SET bal = bal + \
               1 WHERE id = %d"
              k1 k2)
          key key );
      (1, return "SELECT id FROM accounts");
      ( 1,
        map
          (fun k ->
            Printf.sprintf "UPDATE accounts SET bal = bal - 1 WHERE id = %d; UPDATE nosuch SET a \
                            = 1" k)
          key );
      ( 1,
        map
          (fun k -> Printf.sprintf "INSERT INTO accounts (id, bal, pad) VALUES (%d, 1, 'n')" (100 + k))
          key );
    ]

let prop_serial_equivalence =
  QCheck.Test.make ~name:"interleavings match serial reference roots" ~count:8
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" ops)
       QCheck.Gen.(list_size (int_range 1 20) (op_gen 32)))
    (fun ops ->
      let d = Run.build (small_spec ()) in
      Run.run_for d 0.2;
      List.iter (fun op -> ignore (Run.rpc d op : string)) ops;
      Run.run_for d 1.0;
      let topo = Run.topology d in
      let refs = make_reference topo 32 in
      let tx = ref 0 in
      List.iter (fun op -> reference_apply topo refs tx op) ops;
      let ok = ref true in
      for shard = 0 to 1 do
        let deployed = Shards.region_root d ~shard ~replica:0 in
        let reference = Shards.pages_region_root refs.(shard).rs_pages in
        if not (String.equal deployed reference) then ok := false
      done;
      !ok)

(* --- scaling smoke + Byzantine coordinator --- *)

(* A session load's door-side counters cover the measured window. *)
let window r ~node layer name = Util.Metrics.get r.Run.metrics ~node ~layer name

let test_two_shard_smoke () =
  let r = Run.run { (small_spec ~sessions:16 ()) with duration = 1.0 } in
  Alcotest.(check bool) "completed work" true (r.Run.completed > 0);
  Alcotest.(check int) "no errors" 0 (window r ~node:Util.Metrics.run_node "load" "errors");
  List.iter
    (fun lane ->
      Alcotest.(check bool) "both shards active" true
        (window r ~node:lane "shards" "completed" > 0))
    [ 0; 1 ]

let test_cross_shard_commits () =
  let r = Run.run { (small_spec ~cross:0.3 ()) with duration = 1.0 } in
  Alcotest.(check bool) "cross commits happened" true
    (window r ~node:Webgate.Frontdoor.frontdoor_addr "shards" "cross_commits" > 0);
  Alcotest.(check int) "no errors" 0 (window r ~node:Util.Metrics.run_node "load" "errors")

let test_byzantine_coordinator () =
  let r = Shards.byzantine_coordinator () in
  (match r.Shards.bz_failures with
  | [] -> ()
  | fs -> Alcotest.failf "scenario failures:\n%s" (String.concat "\n" fs));
  Alcotest.(check int) "no commit during fault" 0 r.Shards.bz_cross_commits;
  Alcotest.(check bool) "balances held" true r.Shards.bz_balances_held;
  Alcotest.(check bool) "states agree" true r.Shards.bz_states_agree

let () =
  Alcotest.run "shards"
    [
      ( "partitioning",
        [
          Alcotest.test_case "hash determinism" `Quick test_hash_determinism;
          Alcotest.test_case "hash distribution" `Quick test_hash_distribution;
          Alcotest.test_case "statement splitting" `Quick test_split_statements;
          Alcotest.test_case "classification" `Quick test_classify;
          Alcotest.test_case "per-shard plan" `Quick test_plan;
        ] );
      ("twopc", [ Alcotest.test_case "op codec roundtrip" `Quick test_twopc_codec ]);
      ( "frontdoor",
        [
          Alcotest.test_case "abort restores state (COW undo)" `Slow test_abort_restores_state;
          Alcotest.test_case "reply cache keyed on (route, id)" `Slow
            test_reply_cache_route_keyed;
          Alcotest.test_case "two-shard smoke" `Slow test_two_shard_smoke;
          Alcotest.test_case "cross-shard commits" `Slow test_cross_shard_commits;
          Alcotest.test_case "session ops stay opaque" `Quick test_session_ops_opaque;
          Alcotest.test_case "queued cross-shard txs all commit" `Slow test_queued_cross_commit;
          qcheck prop_serial_equivalence;
        ] );
      ( "faults",
        [
          Alcotest.test_case "Byzantine coordinator mid-2PC" `Slow test_byzantine_coordinator;
        ] );
    ]
