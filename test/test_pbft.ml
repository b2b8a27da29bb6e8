(* Tests for the PBFT middleware: wire formats, membership, the
   non-determinism upcalls, and whole-cluster protocol behaviour. *)

open Pbft

let qcheck = Replay.qcheck

(* A replica's counter on its cluster's metrics registry: every
   incarnation of the replica's id, summed. *)
let counted cluster r name =
  Util.Metrics.get
    (Util.Metrics.snapshot (Simnet.Engine.metrics (Cluster.engine cluster)))
    ~node:(Replica.id r) ~layer:"pbft" name

(* --- message codecs --- *)

let sample_request =
  {
    Message.rq_client = 3;
    rq_id = 17;
    rq_op = "operation-bytes";
    rq_readonly = false;
    rq_timestamp = 12.5;
  }

let sample_payloads : Message.payload list =
  [
    Message.Request_msg sample_request;
    Message.Pre_prepare
      {
        pp_view = 2;
        pp_seq = 99;
        pp_batch =
          [
            Message.Full sample_request;
            Message.Digest_of
              { bd_client = 4; bd_id = 9; bd_digest = String.make 32 'd'; bd_readonly = true };
          ];
        pp_nondet = "nd";
      };
    Message.Prepare { p_view = 1; p_seq = 5; p_digest = String.make 32 'x'; p_replica = 2 };
    Message.Commit { c_view = 1; c_seq = 5; c_digest = String.make 32 'x'; c_replica = 0 };
    Message.Reply
      { r_view = 0; r_client = 1; r_id = 2; r_replica = 3; r_result = "res"; r_tentative = true;
        r_partial = Some "partial-bytes" };
    Message.Checkpoint_msg { ck_seq = 128; ck_digest = String.make 32 'c'; ck_replica = 1 };
    Message.View_change
      {
        vc_new_view = 3;
        vc_stable_seq = 128;
        vc_stable_digest = String.make 32 's';
        vc_prepared =
          [ { Message.pi_view = 2; pi_seq = 129; pi_digest = String.make 32 'p'; pi_batch = [] } ];
        vc_replica = 2;
      };
    Message.New_view
      {
        nv_view = 3;
        nv_view_change_digests = [ (0, String.make 32 'v'); (2, String.make 32 'w') ];
        nv_pre_prepares = [ (129, [ Message.Full sample_request ]) ];
      };
    Message.Session_key { sk_sender = 1001; sk_target = 2; sk_key_box = "keybytes" };
    Message.Join_request { j_addr = 1005; j_pubkey = "pk"; j_nonce = "nonce" };
    Message.Join_challenge { jc_replica = 0; jc_addr = 1005; jc_nonce = "ch" };
    Message.Join_response { jr_addr = 1005; jr_proof = "n|p"; jr_pubkey = "pk"; jr_idbuf = "u:p" };
    Message.Join_reply { jl_replica = 1; jl_client = 9; jl_ok = true };
    Message.Leave_msg { lv_client = 9 };
    Message.Fetch_meta { fm_seq = 128; fm_replica = 3 };
    Message.State_meta { sm_seq = 128; sm_replica = 0; sm_leaves = [ String.make 32 'l' ] };
    Message.Fetch_pages { fp_seq = 128; fp_pages = [ 1; 5; 9 ]; fp_replica = 3 };
    Message.State_pages { sp_seq = 128; sp_replica = 0; sp_pages = [ (1, String.make 64 'q') ] };
    Message.Fetch_body { fb_digest = String.make 32 'b'; fb_replica = 2 };
    Message.Body { b_request = sample_request };
    Message.Fetch_entry { fe_seq = 42; fe_replica = 1 };
    Message.Entry { en_seq = 42; en_view = 0; en_batch = [ Message.Full sample_request ]; en_nondet = "nd" };
    Message.Status { st_replica = 2; st_view = 1; st_last_exec = 300 };
    Message.Key_request { kq_replica = 3 };
  ]

let test_message_roundtrips () =
  List.iter
    (fun payload ->
      List.iter
        (fun auth ->
          let msg = { Message.payload; auth } in
          let wire = Message.encode msg in
          match Message.decode wire with
          | Some back ->
            Alcotest.(check bool) ("message " ^ Message.label payload) true (back = msg);
            Alcotest.(check string) ("re-encoded " ^ Message.label payload) wire
              (Message.encode back)
          | None -> Alcotest.failf "decode failed for %s" (Message.label payload))
        [
          Message.No_auth;
          Message.Signed "sig-bytes";
          Message.Authenticated
            (Crypto.Authenticator.compute ~keys:[ (0, Crypto.Mac.key_of_bytes "k") ] "pb");
        ])
    sample_payloads

let test_message_garbage () =
  Alcotest.(check (option pass)) "empty" None (Option.map ignore (Message.decode ""));
  Alcotest.(check (option pass)) "garbage" None (Option.map ignore (Message.decode "\xff\xfe\x99"))

let test_request_digest_stable () =
  let d1 = Message.request_digest sample_request in
  let d2 = Message.request_digest { sample_request with Message.rq_id = 17 } in
  Alcotest.(check string) "deterministic" d1 d2;
  let d3 = Message.request_digest { sample_request with Message.rq_id = 18 } in
  Alcotest.(check bool) "sensitive" false (String.equal d1 d3)

let test_batch_digest () =
  let b1 = [ Message.Full sample_request ] in
  let b2 =
    [
      Message.Digest_of
        {
          bd_client = sample_request.Message.rq_client;
          bd_id = sample_request.Message.rq_id;
          bd_digest = Message.request_digest sample_request;
          bd_readonly = false;
        };
    ]
  in
  (* A digest-only item and its full form describe the same batch. *)
  Alcotest.(check string) "full = digest form" (Message.batch_digest b1) (Message.batch_digest b2)

(* --- config --- *)

let test_config_validation () =
  let ok = Config.default ~f:1 in
  Alcotest.(check bool) "default valid" true (Config.validate ok = Ok ());
  Alcotest.(check bool) "n mismatch" true (Config.validate { ok with Config.n = 5 } <> Ok ());
  Alcotest.(check bool) "window" true
    (Config.validate { ok with Config.log_window = 1 } <> Ok ());
  (* A zero rebroadcast period re-arms at the same virtual instant
     forever, so the clock would never advance. *)
  Alcotest.(check bool) "rebroadcast period" true
    (Config.validate { ok with Config.authenticator_rebroadcast = 0.0 } <> Ok ())

(* --- nondet --- *)

let test_nondet_produce_validate () =
  let rng = Util.Rng.create 1 in
  let data = Nondet.produce ~now:100.0 rng in
  Alcotest.(check (option (float 1e-9))) "timestamp" (Some 100.0) (Nondet.timestamp data);
  Alcotest.(check bool) "no validation" true
    (Nondet.validate Config.No_validation ~now:500.0 ~recovering:false data);
  Alcotest.(check bool) "delta accepts fresh" true
    (Nondet.validate (Config.Delta 1.0) ~now:100.5 ~recovering:false data);
  Alcotest.(check bool) "delta rejects stale" false
    (Nondet.validate (Config.Delta 1.0) ~now:105.0 ~recovering:false data);
  Alcotest.(check bool) "skip accepts stale during recovery" true
    (Nondet.validate (Config.Delta_skip_on_recovery 1.0) ~now:105.0 ~recovering:true data);
  Alcotest.(check bool) "skip still rejects in normal operation" false
    (Nondet.validate (Config.Delta_skip_on_recovery 1.0) ~now:105.0 ~recovering:false data);
  Alcotest.(check bool) "malformed rejected" false
    (Nondet.validate Config.No_validation ~now:0.0 ~recovering:false "junk")

(* The primary draws one value per pre-prepare and writes that one: the
   data is the timestamp and the stream's first draw, and the stream
   moves on by exactly one. Every later draw on the replica's stream
   (session keys, say) depends on it, and SQL reads the value as its
   random number. *)
let test_nondet_draws_once () =
  let rng = Util.Rng.create 9 in
  let data = Nondet.produce ~now:100.0 rng in
  Alcotest.(check string) "pinned bytes" "0000000000005940f2c02888038eb834"
    (Util.Hexdump.of_string data);
  Alcotest.(check int64) "the stream's second draw comes next" 0x7e449796d8a5423eL
    (Util.Rng.next_int64 rng);
  Alcotest.(check (option int64)) "the value is the first draw"
    (Some (Util.Rng.next_int64 (Util.Rng.create 9)))
    (Nondet.random_value data)

(* --- membership --- *)

let test_membership_static () =
  let m = Membership.create ~max_clients:10 in
  Membership.populate_static m [ (1, 1001, "pk1"); (2, 1002, "pk2") ];
  Alcotest.(check int) "count" 2 (Membership.count m);
  Alcotest.(check bool) "lookup" true (Membership.lookup m 1 <> None);
  Alcotest.(check (option int)) "by addr" (Some 2) (Membership.lookup_addr m 1002);
  Alcotest.(check (option int)) "unknown addr" None (Membership.lookup_addr m 9999)

let test_membership_join_assigns_ids () =
  let m = Membership.create ~max_clients:10 in
  (match Membership.join m ~addr:1001 ~pubkey:"p" ~identity:"u1" ~now:0.0 ~stale_threshold:10.0 with
  | Membership.Joined { client; _ } -> Alcotest.(check int) "first id" 1 client
  | Membership.Table_full -> Alcotest.fail "full");
  match Membership.join m ~addr:1002 ~pubkey:"p" ~identity:"u2" ~now:0.0 ~stale_threshold:10.0 with
  | Membership.Joined { client; _ } -> Alcotest.(check int) "second id" 2 client
  | Membership.Table_full -> Alcotest.fail "full"

let test_membership_single_session_per_identity () =
  let m = Membership.create ~max_clients:10 in
  let j addr = Membership.join m ~addr ~pubkey:"p" ~identity:"alice" ~now:0.0 ~stale_threshold:10.0 in
  (match j 1001 with Membership.Joined _ -> () | Membership.Table_full -> Alcotest.fail "full");
  match j 1002 with
  | Membership.Joined { terminated; _ } ->
    Alcotest.(check (list int)) "old session terminated" [ 1 ] terminated;
    Alcotest.(check int) "one session" 1 (Membership.count m)
  | Membership.Table_full -> Alcotest.fail "full"

let test_membership_full_and_cleanup () =
  let m = Membership.create ~max_clients:2 in
  let j addr identity now =
    Membership.join m ~addr ~pubkey:"p" ~identity ~now ~stale_threshold:5.0
  in
  ignore (j 1001 "a" 0.0);
  ignore (j 1002 "b" 0.0);
  (* Fresh sessions: a third join is denied. *)
  (match j 1003 "c" 1.0 with
  | Membership.Table_full -> ()
  | Membership.Joined _ -> Alcotest.fail "should be full");
  Membership.touch m 1 4.0;
  (* Session 2 ("b") is now stale relative to now=8: cleanup makes room. *)
  match j 1003 "c" 8.0 with
  | Membership.Joined { terminated; _ } ->
    Alcotest.(check bool) "stale session cleaned" true (List.mem 2 terminated)
  | Membership.Table_full -> Alcotest.fail "cleanup failed"

let test_membership_leave () =
  let m = Membership.create ~max_clients:2 in
  (match Membership.join m ~addr:1001 ~pubkey:"p" ~identity:"a" ~now:0.0 ~stale_threshold:5.0 with
  | Membership.Joined { client; _ } ->
    Alcotest.(check bool) "leave" true (Membership.leave m client);
    Alcotest.(check bool) "gone" true (Membership.lookup m client = None);
    Alcotest.(check bool) "idempotent" false (Membership.leave m client)
  | Membership.Table_full -> Alcotest.fail "full")

let test_membership_serialize_roundtrip () =
  let m = Membership.create ~max_clients:8 in
  ignore (Membership.join m ~addr:1001 ~pubkey:"pk1" ~identity:"a" ~now:1.0 ~stale_threshold:5.0);
  ignore (Membership.join m ~addr:1002 ~pubkey:"pk2" ~identity:"b" ~now:2.0 ~stale_threshold:5.0);
  Membership.touch m 1 3.5;
  let image = Membership.serialize m in
  let m2 = Membership.create ~max_clients:8 in
  Membership.load m2 image;
  Alcotest.(check (list int)) "clients" (Membership.clients m) (Membership.clients m2);
  Alcotest.(check string) "identical re-serialization" image (Membership.serialize m2);
  (* next_id survives, so ids never collide after a state transfer. *)
  match Membership.join m2 ~addr:1003 ~pubkey:"p" ~identity:"c" ~now:3.0 ~stale_threshold:5.0 with
  | Membership.Joined { client; _ } -> Alcotest.(check int) "next id preserved" 3 client
  | Membership.Table_full -> Alcotest.fail "full"

let test_membership_stale_cleanup_order () =
  (* The last-active agenda must pop the entire stale set in one join,
     in a canonical deterministic order (Join replies carry the list on
     the wire), and touch must reposition entries so a recently active
     session survives the sweep. *)
  let m = Membership.create ~max_clients:4 in
  let j addr identity now =
    Membership.join m ~addr ~pubkey:"p" ~identity ~now ~stale_threshold:5.0
  in
  ignore (j 1001 "a" 0.0);
  ignore (j 1002 "b" 1.0);
  ignore (j 1003 "c" 2.0);
  ignore (j 1004 "d" 3.0);
  (* Client 1 was the oldest but a touch makes it the freshest. *)
  Membership.touch m 1 9.0;
  (* now=10: clients 2,3,4 (last active 1,2,3) are stale; 1 is not. *)
  match j 1005 "e" 10.0 with
  | Membership.Joined { client; terminated } ->
    Alcotest.(check (list int)) "whole stale set, canonical order" [ 4; 3; 2 ] terminated;
    Alcotest.(check int) "new id" 5 client;
    Alcotest.(check bool) "touched session survives" true (Membership.lookup m 1 <> None)
  | Membership.Table_full -> Alcotest.fail "cleanup should have made room"

(* --- log --- *)

let test_log_transitions () =
  let log = Log.create () in
  let e = Log.entry log 5 in
  Log.record_prepare e 0;
  Log.record_prepare e 1;
  Log.record_prepare e 1;
  Alcotest.(check int) "distinct prepares" 2 (Log.prepare_count e);
  Log.record_commit e 2;
  Alcotest.(check int) "commits" 1 (Log.commit_count e);
  Alcotest.(check bool) "same slot" true (Log.entry log 5 == e)

let test_log_watermark_gc () =
  let log = Log.create () in
  for i = 1 to 10 do
    ignore (Log.entry log i)
  done;
  let retired = Log.set_low_watermark log 5 in
  Alcotest.(check (list string)) "no bodies named" [] retired.Log.orphaned;
  Alcotest.(check bool) "gc'd" true (Log.find log 3 = None);
  Alcotest.(check bool) "kept" true (Log.find log 6 <> None);
  Alcotest.(check int) "low" 5 (Log.low_watermark log)

let test_log_reply_cache () =
  let log = Log.create () in
  Log.cache_reply log 7
    { Log.cr_id = 3; cr_result = "r"; cr_view = 0; cr_tentative = false; cr_timestamp = 1.0;
      cr_speculative = false };
  (match Log.cached_reply log 7 with
  | Some cr -> Alcotest.(check int) "id" 3 cr.Log.cr_id
  | None -> Alcotest.fail "missing");
  Log.drop_client log 7;
  Alcotest.(check bool) "dropped" true (Log.cached_reply log 7 = None)

(* --- cluster protocol behaviour --- *)

let run_requests ?(cfg = Config.default ~f:1) ?(num_clients = 4) ?(service = Service.null ()) ~per_client () =
  let cluster = Cluster.create ~seed:33 ~num_clients ~service cfg in
  let results = Array.make num_clients [] in
  Array.iteri
    (fun i cl ->
      let rec go n =
        if n <= per_client then
          Client.invoke cl (Printf.sprintf "op-%d-%d" i n) (fun r ->
              results.(i) <- r :: results.(i);
              go (n + 1))
      in
      go 1)
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:30.0;
  (cluster, results)

let test_cluster_basic_agreement () =
  let cluster, results = run_requests ~per_client:5 () in
  Array.iter (fun rs -> Alcotest.(check int) "all replies" 5 (List.length rs)) results;
  Array.iter
    (fun r ->
      Alcotest.(check int) "each replica executed all" 20 (Replica.executed_requests r);
      Alcotest.(check int) "no view change" 0 (counted cluster r "view_changes"))
    (Cluster.replicas cluster)

let state_digest r =
  let tree = Statemgr.Merkle.build (Replica.pages r) in
  Statemgr.Merkle.root tree

let test_cluster_replicas_identical () =
  let cluster, _ = run_requests ~service:(Service.kv_store ()) ~per_client:8 () in
  let digests = Array.map state_digest (Cluster.replicas cluster) in
  Array.iter (fun d -> Alcotest.(check string) "state convergence" digests.(0) d) digests

let test_cluster_deterministic_across_runs () =
  let digest_of_run () =
    let cluster, _ = run_requests ~service:(Service.counter ()) ~per_client:5 () in
    ( state_digest (Cluster.replica cluster 0),
      Replica.executed_requests (Cluster.replica cluster 0) )
  in
  let d1 = digest_of_run () and d2 = digest_of_run () in
  Alcotest.(check bool) "bit-for-bit reproducible" true (d1 = d2)

let test_cluster_counter_semantics () =
  let cfg = Config.default ~f:1 in
  let cluster = Cluster.create ~seed:1 ~num_clients:1 ~service:(Service.counter ()) cfg in
  let c = Cluster.client cluster 0 in
  let last = ref "" in
  let rec go n =
    if n <= 10 then Client.invoke c "incr" (fun r -> last := r; go (n + 1))
  in
  go 1;
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check string) "sequential increments" "10" !last

let test_cluster_readonly () =
  let cfg = Config.default ~f:1 in
  let cluster = Cluster.create ~seed:2 ~num_clients:1 ~service:(Service.counter ()) cfg in
  let c = Cluster.client cluster 0 in
  let got = ref "" in
  Client.invoke c "incr" (fun _ ->
      Client.invoke c ~readonly:true "get" (fun r -> got := r));
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check string) "read-only sees committed state" "1" !got

let test_cluster_nobatch_mode () =
  let cfg = { (Config.default ~f:1) with Config.batching = false } in
  let cluster, results = run_requests ~cfg ~per_client:3 () in
  Array.iter (fun rs -> Alcotest.(check int) "replies" 3 (List.length rs)) results;
  Alcotest.(check int) "executed" 12 (Replica.executed_requests (Cluster.replica cluster 0))

let test_cluster_signatures_mode () =
  (* §4.1's most robust configuration: signatures instead of MACs, and
     no big requests. *)
  let cfg =
    { (Config.default ~f:1) with Config.use_macs = false; big_request_threshold = 8192 }
  in
  let cluster, results = run_requests ~cfg ~per_client:3 () in
  Array.iter (fun rs -> Alcotest.(check int) "replies" 3 (List.length rs)) results;
  Alcotest.(check int) "no auth failures" 0
    (Array.fold_left (fun a r -> a + counted cluster r "auth_failures") 0 (Cluster.replicas cluster))

let test_cluster_f2 () =
  let cfg = Config.default ~f:2 in
  let cluster, results = run_requests ~cfg ~per_client:3 () in
  Alcotest.(check int) "n = 7" 7 (Array.length (Cluster.replicas cluster));
  Array.iter (fun rs -> Alcotest.(check int) "replies" 3 (List.length rs)) results

let test_cluster_checkpoint_gc () =
  let cfg = { (Config.default ~f:1) with Config.checkpoint_interval = 16; log_window = 64 } in
  let cluster, _ = run_requests ~cfg ~per_client:30 () in
  Array.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d advanced stable checkpoint" (Replica.id r))
        true
        (Replica.stable_checkpoint r > 0))
    (Cluster.replicas cluster)

let test_cluster_view_change_on_primary_failure () =
  let cfg = { (Config.default ~f:1) with Config.view_change_timeout = 0.3 } in
  let cluster = Cluster.create ~seed:44 ~num_clients:4 cfg in
  let stop = ref false in
  Array.iter
    (fun cl ->
      let rec loop _ = if not !stop then Client.invoke cl "work" loop in
      loop "")
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:0.3;
  let before = Cluster.total_completed cluster in
  Replica.shutdown (Cluster.replica cluster 0);
  Cluster.run cluster ~seconds:5.0;
  stop := true;
  let after = Cluster.total_completed cluster in
  Array.iter
    (fun r ->
      if Replica.id r <> 0 then begin
        Alcotest.(check bool) "left view 0" true (Replica.view r > 0);
        Alcotest.(check int) "primary consistent" (Replica.view (Cluster.replica cluster 1))
          (Replica.view r)
      end)
    (Cluster.replicas cluster);
  Alcotest.(check bool) "progress resumed in new view" true (after > before)

let test_cluster_retransmission_duplicate_suppression () =
  (* A very lossy network: clients retransmit aggressively, yet each
     request executes exactly once (reply cache + in-flight dedup). *)
  let cfg = { (Config.default ~f:1) with Config.client_timeout = 0.05 } in
  let cluster = Cluster.create ~seed:55 ~num_clients:2 ~service:(Service.counter ()) cfg in
  (* 15% loss on every datagram: one lossy predicate on each replica's
     outgoing (sender wildcard) and incoming (receiver wildcard) links
     covers replica, client and reply traffic alike. *)
  let net = Cluster.net cluster and any = Simnet.Net.any_addr in
  let rng = Util.Rng.create 55 in
  let lossy ~label:_ = Util.Rng.bernoulli rng 0.15 in
  for r = 0 to cfg.Config.n - 1 do
    Simnet.Net.set_link_drop net ~src:r ~dst:any lossy;
    Simnet.Net.set_link_drop net ~src:any ~dst:r lossy
  done;
  let done_ = ref 0 in
  Array.iter
    (fun cl ->
      let rec go n =
        if n <= 5 then
          Client.invoke cl "incr" (fun _ ->
              incr done_;
              go (n + 1))
      in
      go 1)
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:60.0;
  Alcotest.(check bool) "datagrams lost" true (Simnet.Net.dropped_count net > 0);
  Alcotest.(check bool) "progress under loss" true (!done_ > 0);
  for r = 0 to cfg.Config.n - 1 do
    Simnet.Net.clear_link net ~src:r ~dst:any;
    Simnet.Net.clear_link net ~src:any ~dst:r
  done;
  Cluster.run cluster ~seconds:30.0;
  Alcotest.(check int) "all eventually complete" 10 !done_;
  (* The counter must equal exactly the number of requests: duplicates
     were suppressed despite retransmissions. *)
  let c = Cluster.client cluster 0 in
  let final = ref "" in
  Client.invoke c ~readonly:true "get" (fun r -> final := r);
  Cluster.run cluster ~seconds:10.0;
  Alcotest.(check string) "exactly-once execution" "10" !final

let test_cluster_body_loss_state_transfer () =
  let cluster = Cluster.create ~seed:66 ~num_clients:4 (Config.default ~f:1) in
  let stop = ref false in
  Array.iter
    (fun cl ->
      let rec loop _ = if not !stop then Client.invoke cl (String.make 256 'b') loop in
      loop "")
    (Cluster.clients cluster);
  Simnet.Engine.schedule (Cluster.engine cluster) ~delay:0.2 (fun () ->
      Simnet.Net.drop_next_matching (Cluster.net cluster) (fun ~src ~dst ~label ->
          src >= Types.client_addr_base && dst = 3 && label = "request"));
  Cluster.run cluster ~seconds:5.0;
  stop := true;
  let r3 = Cluster.replica cluster 3 in
  Alcotest.(check bool) "victim recovered by state transfer" true (counted cluster r3 "demotion_transfers" + counted cluster r3 "rejoin_transfers" >= 1);
  (* After recovery the victim keeps executing. *)
  Alcotest.(check bool) "victim caught up" true
    (Replica.last_executed r3 > 0
    && Replica.last_executed (Cluster.replica cluster 0) - Replica.last_executed r3 < 300)

let test_view_change_backoff_consecutive_mute_primaries () =
  (* Regression for the view-change timer backoff: the view-0 primary is
     dead and the primaries of views 1 and 2 are muted for leadership
     traffic (they vote but never emit a new-view), so the cluster must
     burn through two failed view changes before view 3 elects a live
     primary. Without the per-attempt doubling, replicas restart the
     view change on the base timeout faster than the dead views can be
     ruled out and never accumulate the escalation. *)
  let cfg = { (Config.default ~f:1) with Config.view_change_timeout = 0.2 } in
  let cluster = Cluster.create ~seed:47 ~num_clients:4 cfg in
  let stop = ref false in
  Array.iter
    (fun cl ->
      let rec loop _ = if not !stop then Client.invoke cl "work" loop in
      loop "")
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:0.3;
  let net = Cluster.net cluster in
  let leadership ~label = String.equal label "pre-prepare" || String.equal label "new-view" in
  Replica.shutdown (Cluster.replica cluster 0);
  Simnet.Net.set_link_drop net ~src:1 ~dst:Simnet.Net.any_addr leadership;
  Simnet.Net.set_link_drop net ~src:2 ~dst:Simnet.Net.any_addr leadership;
  (* Sample the watchdog's escalation: it must climb while the dead views
     burn, and rewind to the base timeout once view 3 starts executing. *)
  let r3 = Cluster.replica cluster 3 in
  let before = Cluster.total_completed cluster in
  let max_attempts = ref 0 in
  let min_attempts_after_progress = ref max_int in
  let probe =
    Simnet.Engine.periodic (Cluster.engine cluster) ~interval:0.05 (fun () ->
        let a = Replica.view_change_attempts r3 in
        max_attempts := Int.max !max_attempts a;
        if Cluster.total_completed cluster > before then
          min_attempts_after_progress := Int.min !min_attempts_after_progress a)
  in
  Cluster.run cluster ~seconds:8.0;
  Simnet.Engine.cancel probe;
  stop := true;
  Cluster.run cluster ~seconds:0.5;
  Alcotest.(check bool) "reached view 3" true (Replica.view r3 >= 3);
  Alcotest.(check bool) "watchdog backed off across attempts" true (!max_attempts >= 2);
  Alcotest.(check bool) "progress under the live primary" true
    (Cluster.total_completed cluster > before);
  Alcotest.(check int) "attempts reset once executing again" 0 !min_attempts_after_progress

let test_cluster_partition_heal_catchup () =
  (* A partition isolates one backup mid-agreement: the remaining 2f+1
     must keep committing through the window, and the victim must catch
     back up after the heal. The partition is a dropping predicate on
     each link between replica 3 and the others, installed at 0.3 s and
     cleared at 1.3 s. *)
  let cfg = { (Config.default ~f:1) with Config.view_change_timeout = 3.0 } in
  let cluster = Cluster.create ~seed:67 ~num_clients:4 cfg in
  let stop = ref false in
  Array.iter
    (fun cl ->
      let rec loop _ = if not !stop then Client.invoke cl (String.make 256 'p') loop in
      loop "")
    (Cluster.clients cluster);
  let net = Cluster.net cluster and engine = Cluster.engine cluster in
  let links = List.concat_map (fun r -> [ (3, r); (r, 3) ]) [ 0; 1; 2 ] in
  Simnet.Engine.schedule_at engine ~time:0.3 (fun () ->
      List.iter (fun (src, dst) -> Simnet.Net.set_link_drop net ~src ~dst (fun ~label:_ -> true)) links);
  Simnet.Engine.schedule_at engine ~time:1.3 (fun () ->
      List.iter (fun (src, dst) -> Simnet.Net.clear_link net ~src ~dst) links);
  let during = ref 0 and at_heal = ref 0 in
  Simnet.Engine.schedule (Cluster.engine cluster) ~delay:1.3 (fun () ->
      during := Cluster.total_completed cluster;
      at_heal := Replica.last_executed (Cluster.replica cluster 3));
  Cluster.run cluster ~seconds:5.0;
  stop := true;
  Cluster.run cluster ~seconds:0.5;
  let r3 = Cluster.replica cluster 3 in
  Alcotest.(check bool) "quorum progressed during the partition" true (!during > 0);
  Alcotest.(check bool) "victim was behind at heal time" true
    (!at_heal < Replica.last_executed (Cluster.replica cluster 0));
  Alcotest.(check bool) "victim caught up after heal" true (Replica.last_executed r3 > !at_heal)

let test_cluster_overload_recv_buffer_drops () =
  (* §2.4 loop-back congestion: a tiny receive buffer under a closed-loop
     burst sheds datagrams at the NIC, and the protocol absorbs the loss
     through retransmission rather than stalling. *)
  let profile = { Simnet.Net.lan_profile with Simnet.Net.recv_buffer = 16 } in
  let cfg = { (Config.default ~f:1) with Config.client_timeout = 0.2 } in
  let cluster = Cluster.create ~seed:68 ~profile ~num_clients:12 cfg in
  let stop = ref false in
  Array.iter
    (fun cl ->
      let rec loop _ = if not !stop then Client.invoke cl (String.make 512 'o') loop in
      loop "")
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:3.0;
  stop := true;
  Cluster.run cluster ~seconds:0.5;
  Alcotest.(check bool) "overflow drops occurred" true
    (Simnet.Net.dropped_count (Cluster.net cluster) > 0);
  Alcotest.(check bool) "progress despite overflow" true (Cluster.total_completed cluster > 0)

let test_cluster_restart_recovery () =
  let cfg = { (Config.default ~f:1) with Config.authenticator_rebroadcast = 0.5 } in
  let cluster = Cluster.create ~seed:77 ~num_clients:4 cfg in
  let stop = ref false in
  Array.iter
    (fun cl ->
      let rec loop _ = if not !stop then Client.invoke cl "op" loop in
      loop "")
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:1.0;
  Cluster.restart_replica cluster 2;
  Cluster.run cluster ~seconds:3.0;
  stop := true;
  let r2 = Cluster.replica cluster 2 in
  (* Recovery mode is a window, not a permanent mark: [restart] raises
     the flag and a 2f+1 checkpoint quorum covering self-executed state
     lowers it. Three virtual seconds is ample to catch up here, so the
     flag must be down again — a replica stuck recovering would abstain
     from every future view change. *)
  Alcotest.(check bool) "recovering flag lowered" false (Replica.is_recovering r2);
  (match Replica.recovery_completed_at r2 with
  | Some t ->
    Alcotest.(check bool) "recovered within two rebroadcast periods" true (t -. 1.0 < 1.2)
  | None -> Alcotest.fail "replica never recovered");
  Alcotest.(check bool) "auth failures observed during stall" true (counted cluster r2 "auth_failures" > 0)

let test_dynamic_join_and_request () =
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true } in
  let cluster = Cluster.create ~seed:88 ~num_clients:2 ~service:(Service.counter ()) cfg in
  let c = Cluster.client cluster 0 in
  let result = ref "" in
  Client.join c ~idbuf:"alice:pw" (function
    | Some _ -> Client.invoke c "incr" (fun r -> result := r)
    | None -> Alcotest.fail "join denied");
  Cluster.run cluster ~seconds:10.0;
  Alcotest.(check string) "joined client can execute" "1" !result;
  (* Unknown clients are rejected at the redirection table. *)
  Alcotest.(check bool) "membership holds one client" true
    (Membership.count (Replica.membership (Cluster.replica cluster 0)) = 1)

let test_dynamic_join_denied_bad_credentials () =
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true } in
  let cluster = Cluster.create ~seed:89 ~num_clients:1 cfg in
  let denied = ref false in
  (* The null service's authorize_join requires "user:password". *)
  Client.join (Cluster.client cluster 0) ~idbuf:"no-colon-here" (function
    | Some _ -> Alcotest.fail "should be denied"
    | None -> denied := true);
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check bool) "denied" true !denied

(* A Byzantine replica answers the join with a validly signed but bogus
   challenge. Phase 2 must answer the challenge f+1 replicas agree on;
   answering the last one tallied (replica 3's, the highest id) wedged
   every join behind this one liar. *)
let test_dynamic_join_lying_challenge () =
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true } in
  let cluster = Cluster.create ~seed:21 ~num_clients:1 ~service:(Service.counter ()) cfg in
  let c = Cluster.client cluster 0 in
  let liar = Cluster.replica cluster 3 in
  Simnet.Net.set_link_corrupt (Cluster.net cluster) ~src:3 ~dst:(Client.addr c)
    (fun ~dst:_ ~label:_ wire ->
      match Message.decode wire with
      | Some { payload = Message.Join_challenge jc; _ } ->
        let payload = Message.Join_challenge { jc with jc_nonce = "bogus" } in
        (Message.seal payload (Message.Sign (Replica.signer liar))).frame
      | Some _ | None -> wire);
  let result = ref "" in
  Client.join c ~idbuf:"alice:pw" (function
    | Some _ -> Client.invoke c "incr" (fun r -> result := r)
    | None -> Alcotest.fail "join denied");
  Cluster.run cluster ~seconds:30.0;
  Alcotest.(check string) "joined and executed despite the liar" "1" !result

let test_dynamic_leave () =
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true } in
  let cluster = Cluster.create ~seed:90 ~num_clients:1 cfg in
  let c = Cluster.client cluster 0 in
  let joined = ref false in
  Client.join c ~idbuf:"a:b" (function Some _ -> joined := true | None -> ());
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check bool) "joined" true !joined;
  Client.leave c;
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check int) "membership empty after leave" 0
    (Membership.count (Replica.membership (Cluster.replica cluster 0)))

(* A client that left stops its session-key rebroadcast. With every
   replica shut down the only periodic work left is the client's own, so
   an idle stretch after the leave runs no engine event at all. *)
let test_leave_stops_rebroadcast () =
  let cfg = { (Config.default ~f:1) with Config.authenticator_rebroadcast = 0.5 } in
  let cluster = Cluster.create ~seed:91 ~num_clients:1 cfg in
  Cluster.run cluster ~seconds:1.0;
  Array.iter Replica.shutdown (Cluster.replicas cluster);
  Cluster.run cluster ~seconds:1.0;
  let engine = Cluster.engine cluster in
  let idle seconds =
    let before = Simnet.Engine.events engine in
    Cluster.run cluster ~seconds;
    Simnet.Engine.events engine - before
  in
  Alcotest.(check bool) "a member rebroadcasts its keys" true (idle 5.0 > 0);
  Client.leave (Cluster.client cluster 0);
  Cluster.run cluster ~seconds:1.0;
  Alcotest.(check int) "no event after the leave" 0 (idle 5.0)

(* A Leave runs as an ordered system op: every replica drops the client
   and rewrites the same membership pages, and the freed slot takes a
   later join. A Leave naming the client but sent from another member's
   address (with that member's valid MAC) is ignored. *)
let test_dynamic_ordered_leave () =
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true; max_clients = 2 } in
  let cluster = Cluster.create ~seed:92 ~num_clients:3 ~service:(Service.counter ()) cfg in
  let a = Cluster.client cluster 0 and b = Cluster.client cluster 1 in
  let result = ref "" in
  Client.join a ~idbuf:"alice:pw" (function
    | Some _ -> Client.invoke a "incr" (fun r -> result := r)
    | None -> Alcotest.fail "join denied");
  Client.join b ~idbuf:"bob:pw" (fun _ -> ());
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check string) "joined client completed a request" "1" !result;
  let cid = Option.get (Client.client_id a) in
  let members () = Array.map Replica.membership (Cluster.replicas cluster) in
  let payload = Message.Leave_msg { lv_client = cid } in
  for dst = 0 to cfg.n - 1 do
    Simnet.Net.send (Cluster.net cluster) ~src:(Client.addr b) ~dst
      (Message.seal payload (Message.Macs [ (dst, Client.session_key_for b dst) ])).frame
  done;
  Cluster.run cluster ~seconds:2.0;
  Array.iter
    (fun m -> Alcotest.(check bool) "forged leave ignored" true (Membership.lookup m cid <> None))
    (members ());
  Client.leave a;
  Cluster.run cluster ~seconds:2.0;
  Array.iter
    (fun m ->
      Alcotest.(check bool) "client dropped" true (Membership.lookup m cid = None);
      Alcotest.(check int) "one member left" 1 (Membership.count m))
    (members ());
  let image r =
    let pages = Replica.pages r in
    Statemgr.Pages.read pages ~pos:0 ~len:(4 * Statemgr.Pages.page_size pages)
  in
  let images = Array.map image (Cluster.replicas cluster) in
  Array.iter (fun i -> Alcotest.(check string) "membership pages agree" images.(0) i) images;
  let c = Cluster.client cluster 2 and joined = ref false in
  Client.join c ~idbuf:"carol:pw" (fun r -> joined := r <> None);
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check bool) "freed slot takes a later join" true !joined

let test_nondet_delta_blocks_replay () =
  (* Condensed version of the §2.5 experiment: with plain delta
     validation a restarted replica rejects replayed entries; with the
     skip-on-recovery policy it accepts them. *)
  let run policy =
    let cfg =
      {
        (Config.default ~f:1) with
        Config.use_macs = false;
        big_request_threshold = 1 lsl 20;
        fetch_missing_entries = true;
        checkpoint_interval = 50_000;
        log_window = 100_000;
        nondet = policy;
      }
    in
    let cluster = Cluster.create ~seed:91 ~num_clients:2 cfg in
    let stop = ref false in
    Array.iter
      (fun cl ->
        let rec loop _ =
          if not !stop then
            Simnet.Engine.schedule (Cluster.engine cluster) ~delay:0.05 (fun () ->
                if not !stop then Client.invoke cl "x" loop)
        in
        loop "")
      (Cluster.clients cluster);
    Cluster.run cluster ~seconds:3.0;
    Cluster.restart_replica cluster 2;
    Cluster.run cluster ~seconds:4.0;
    stop := true;
    let r2 = Cluster.replica cluster 2 in
    (counted cluster r2 "nondet_rejects", Replica.last_executed r2, Replica.last_executed (Cluster.replica cluster 0))
  in
  let rejects_delta, behind_delta, head_delta = run (Config.Delta 1.0) in
  Alcotest.(check bool) "delta rejects replays" true (rejects_delta > 0);
  Alcotest.(check bool) "delta impedes recovery" true (head_delta - behind_delta > 10);
  let rejects_skip, behind_skip, head_skip = run (Config.Delta_skip_on_recovery 1.0) in
  Alcotest.(check int) "skip accepts replays" 0 rejects_skip;
  Alcotest.(check bool) "skip recovers" true (head_skip - behind_skip <= 10)

(* --- crash / restart / Merkle-diff rejoin (PR 10) --- *)

(* Shared driver: a single closed-loop client keeps the committed batch
   sequence independent of message interleavings (one request in flight
   at a time, batches of one), so runs with and without a crash commit
   the exact same batches and the final store is byte-identical. The
   kv values embed the write counter so every put changes page bytes. *)
let crash_cfg () =
  {
    (Config.default ~f:1) with
    (* Short enough that stable checkpoints form under a ~120-op
       workload (the rejoin needs one on disk), roomy enough that
       healthy backups never hit the §2.4 lag demotion — a demotion
       transfer skips execution, which would leave journal gaps. *)
    Config.checkpoint_interval = 16;
    log_window = 64;
    view_change_timeout = 0.25;
    rejoin_key_refresh = true;
  }

(* [total] is a multiple of the checkpoint interval on purpose: the
   final checkpoint then sits exactly at the head of history, so however
   late the victim rejoins there is always a stable checkpoint quorum
   covering everything it missed. (A replica stranded between the last
   checkpoint and the head after traffic stops has nothing to pull it
   forward — the §2.4 demotion only triggers on checkpoint gossip.) *)
let run_single_client_workload ?(total = 160) ?(crash = None) cfg =
  let cluster = Cluster.create ~seed:123 ~num_clients:1 ~service:(Service.kv_store ()) cfg in
  Array.iter (fun r -> Replica.set_record_journal r true) (Cluster.replicas cluster);
  let engine = Cluster.engine cluster in
  let cl = Cluster.client cluster 0 in
  let seq = ref 0 in
  let rec loop _ =
    if !seq < total then begin
      incr seq;
      Client.invoke cl
        (Printf.sprintf "put k%d v%d.%s" (!seq mod 8) !seq (String.make 24 'v'))
        (fun _ -> Simnet.Engine.schedule engine ~delay:0.01 (fun () -> loop ""))
    end
  in
  loop "";
  (match crash with
  | Some (victim, crash_at, downtime) ->
    Simnet.Engine.schedule engine ~delay:crash_at (fun () -> Cluster.crash_replica cluster victim);
    Simnet.Engine.schedule engine ~delay:(crash_at +. downtime) (fun () ->
        Cluster.restart_replica cluster victim;
        Replica.set_record_journal (Cluster.replica cluster victim) true)
  | None -> ());
  Cluster.run cluster ~seconds:20.0;
  Alcotest.(check int) "workload drained" total !seq;
  cluster

(* The registry keeps a retired incarnation's counts: the snapshot sums
   both incarnations of the victim's id, while the kept getters read the
   live incarnation's own cells. *)
let test_restart_metrics_cover_incarnations () =
  let cluster = run_single_client_workload ~crash:(Some (2, 0.6, 0.2)) (crash_cfg ()) in
  let fresh = Cluster.replica cluster 2 in
  let snap = Util.Metrics.snapshot (Simnet.Engine.metrics (Cluster.engine cluster)) in
  let executed = Util.Metrics.get snap ~node:2 ~layer:"pbft" "executed_requests" in
  let own = Replica.executed_requests fresh in
  Alcotest.(check bool) "the live incarnation executed" true (own > 0);
  Alcotest.(check bool) "the retired incarnation's executions are kept" true (executed > own);
  Alcotest.(check int) "pages fetched: only the fresh incarnation transferred"
    (Util.Metrics.get snap ~node:2 ~layer:"statemgr" "transfer_pages_fetched")
    (Replica.transfer_pages_fetched fresh);
  Alcotest.(check int) "a replica that never restarted reads the whole key"
    (Util.Metrics.get snap ~node:0 ~layer:"pbft" "executed_requests")
    (Replica.executed_requests (Cluster.replica cluster 0))

let test_restart_merkle_diff_fewer_pages () =
  (* The acceptance property: a crashed replica rejoins by fetching only
     the pages that diverged from its reloaded disk checkpoint —
     strictly fewer than the full page set. *)
  let cluster = run_single_client_workload ~crash:(Some (2, 0.6, 0.2)) (crash_cfg ()) in
  let r2 = Cluster.replica cluster 2 in
  Alcotest.(check int) "one rejoin transfer" 1 (counted cluster r2 "rejoin_transfers");
  (match Replica.recovery_completed_at r2 with
  | None -> Alcotest.fail "rejoin never completed"
  | Some _ -> ());
  let fetched = Replica.transfer_pages_fetched r2 and full = Replica.transfer_pages_full r2 in
  Alcotest.(check bool) "diff moved pages" true (fetched > 0);
  Alcotest.(check bool)
    (Printf.sprintf "diff beats full transfer (%d < %d)" fetched full)
    true
    (fetched < full);
  (* PR 6 regression extended to the restart path: the rejoin resets the
     view-change watchdog backoff. *)
  Alcotest.(check int) "watchdog backoff reset" 0 (Replica.view_change_attempts r2)

let prop_crash_restart_equivalent =
  (* Crash one backup at an arbitrary point in the three-phase/checkpoint
     flow, restart it after an arbitrary repair window, and the final
     Merkle root and exec journal must be bit-identical to a run that
     never crashed. *)
  (* The store is compared bit-for-bit across runs. The journals are
     compared bit-for-bit against the never-crashed peers of the same
     run: batch digests cover the client-side request timestamps, and a
     crash changes how much verification work every peer does, which
     shifts the virtual clock under the CPU cost model — so two separate
     runs legitimately commit different bytes while agreeing on every
     operation and on the final state. *)
  let baseline =
    lazy
      (let cluster = run_single_client_workload (crash_cfg ()) in
       let r0 = Cluster.replica cluster 0 in
       ( Replica.last_executed r0,
         Statemgr.Merkle.root (Statemgr.Merkle.build (Replica.pages r0)) ))
  in
  let gen =
    QCheck.Gen.(
      triple (int_range 1 3) (float_range 0.05 1.2) (float_range 0.05 0.5))
  in
  QCheck.Test.make ~name:"crash at an arbitrary phase is invisible after rejoin" ~count:10
    (QCheck.make ~print:QCheck.Print.(triple int float float) gen)
    (fun (victim, crash_at, downtime) ->
      let base_exec, base_root = Lazy.force baseline in
      let cluster =
        run_single_client_workload ~crash:(Some (victim, crash_at, downtime)) (crash_cfg ())
      in
      let rv = Cluster.replica cluster victim in
      let live = Array.to_list (Cluster.replicas cluster) in
      let root r = Statemgr.Merkle.root (Statemgr.Merkle.build (Replica.pages r)) in
      (* No replica — restarted one included — may have committed a
         different batch at any sequence the others also journaled, nor
         diverged in state at equal execution points. *)
      (match Harness.Run.safety live with
      | [] -> ()
      | fs -> QCheck.Test.fail_reportf "%s" (String.concat "; " fs));
      (* Every replica converges to the exact bytes of the run that
         never crashed: same number of committed batches, same Merkle
         root — so the crash left no trace in the replicated state. *)
      List.iter
        (fun r ->
          if Replica.last_executed r <> base_exec then
            QCheck.Test.fail_reportf
              "replica %d executed %d batches, baseline %d (view=%d recovering=%b recovered=%s \
               rejoin=%d dem=%d auth=%d nondet_rej=%d vc=%d)"
              (Replica.id r) (Replica.last_executed r) base_exec (Replica.view r)
              (Replica.is_recovering r)
              (match Replica.recovery_completed_at r with
              | None -> "no"
              | Some t -> Printf.sprintf "%.3f" t)
              (counted cluster r "rejoin_transfers") (counted cluster r "demotion_transfers")
              (counted cluster r "auth_failures") (counted cluster r "nondet_rejects")
              (Replica.view_change_attempts r);
          if not (String.equal (root r) base_root) then
            QCheck.Test.fail_reportf "replica %d Merkle root diverged from never-crashed run"
              (Replica.id r))
        live;
      (match Replica.recovery_completed_at rv with
      | None -> QCheck.Test.fail_reportf "victim never completed its rejoin"
      | Some _ -> ());
      true)

(* Regression (rejoin wedge): a rejoin pins the checkpoint named in the
   first State_meta it receives. When the serving peer collected that
   checkpoint before the page fetches arrived, it dropped them, and the
   transfer asked again every 0.5 s forever, leaving the victim
   recovering at 16, 32 or 48 of the 160 batches. Each case below
   wedged that way; the peer now announces its stable checkpoint and the
   rejoin moves to it. *)
let test_restart_rejoin_follows_collected_checkpoint () =
  List.iter
    (fun (victim, crash_at, downtime) ->
      let cluster =
        run_single_client_workload ~crash:(Some (victim, crash_at, downtime)) (crash_cfg ())
      in
      let rv = Cluster.replica cluster victim in
      let case = Printf.sprintf "victim %d, crash %.3f s, down %.3f s" victim crash_at downtime in
      Alcotest.(check bool) (case ^ ": rejoin finished") true
        (Option.is_some (Replica.recovery_completed_at rv));
      Alcotest.(check int) (case ^ ": victim at head") 160 (Replica.last_executed rv))
    [
      (1, 0.230696570491, 0.44360870365);
      (1, 0.248273531198, 0.439431744951);
      (1, 0.455145616205, 0.217900800614);
      (3, 0.567181601957, 0.27669632357);
      (1, 0.481242726933, 0.377384909285);
      (1, 0.44275967703, 0.401829803295);
    ]

let test_restart_client_keys_reinstalled () =
  (* Regression: a restarted replica loses the statically-configured
     client session keys with the rest of its volatile state. Unless the
     cluster re-installs them out of band on restart, every client
     request authenticates against a missing key forever — silent until
     the replica becomes primary. After rejoin, continued client traffic
     must produce zero new auth failures on the restarted replica. *)
  let cfg = crash_cfg () in
  let cluster = Cluster.create ~seed:31 ~num_clients:2 ~service:(Service.kv_store ()) cfg in
  let engine = Cluster.engine cluster in
  let stop = ref false in
  Array.iteri
    (fun i cl ->
      let seq = ref 0 in
      let rec loop _ =
        if not !stop then begin
          incr seq;
          Client.invoke cl
            (Printf.sprintf "put c%d-%d v%d" i (!seq mod 8) !seq)
            (fun _ -> Simnet.Engine.schedule engine ~delay:0.01 (fun () -> loop ""))
        end
      in
      loop "")
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:0.5;
  Cluster.crash_replica cluster 1;
  Cluster.run cluster ~seconds:0.2;
  Cluster.restart_replica cluster 1;
  Cluster.run cluster ~seconds:1.0;
  let r1 = Cluster.replica cluster 1 in
  (match Replica.recovery_completed_at r1 with
  | None -> Alcotest.fail "rejoin never completed"
  | Some _ -> ());
  (* Quiesce past the rejoin's transient in-flight window, then continued
     traffic must verify cleanly. *)
  let before = counted cluster r1 "auth_failures" in
  Cluster.run cluster ~seconds:1.5;
  stop := true;
  Cluster.run cluster ~seconds:0.5;
  Alcotest.(check int) "no auth failures on post-rejoin client traffic" before
    (counted cluster r1 "auth_failures");
  Alcotest.(check int) "caught up with peers" (Replica.last_executed (Cluster.replica cluster 0))
    (Replica.last_executed r1)

let test_restart_exactly_once_counter () =
  (* Regression for the reply cache: requests executed before the crash
     must not re-execute after the restart (the restarted replica's
     counter state comes from its disk checkpoint + transfer, and client
     retransmissions are absorbed). The counter's final value equals the
     number of completed invocations exactly. *)
  let cfg = crash_cfg () in
  let cluster = Cluster.create ~seed:32 ~num_clients:2 ~service:(Service.counter ()) cfg in
  let engine = Cluster.engine cluster in
  let stop = ref false in
  let completed = ref 0 and last = ref "" in
  Array.iter
    (fun cl ->
      let rec loop r =
        if not (String.equal r "") then begin
          incr completed;
          last := r
        end;
        if not !stop then
          Simnet.Engine.schedule engine ~delay:0.01 (fun () ->
              if not !stop then Client.invoke cl "incr" loop)
      in
      loop "")
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:0.7;
  Cluster.crash_replica cluster 2;
  Cluster.run cluster ~seconds:0.3;
  Cluster.restart_replica cluster 2;
  Cluster.run cluster ~seconds:1.5;
  stop := true;
  Cluster.run cluster ~seconds:1.0;
  Alcotest.(check bool) "made progress" true (!completed > 20);
  Alcotest.(check string) "counter equals completions (exactly-once)"
    (string_of_int !completed) !last;
  let r2 = Cluster.replica cluster 2 in
  Alcotest.(check int) "restarted replica caught up"
    (Replica.last_executed (Cluster.replica cluster 0))
    (Replica.last_executed r2)

let test_restart_dynamic_membership_reload () =
  (* Regression: the membership/redirection table is volatile, decoded
     from the state region. A restarted replica must rebuild it from the
     reloaded checkpoint (and the transfer), or it drops every request
     from clients that joined before the crash. *)
  let cfg = { (crash_cfg ()) with Config.dynamic_clients = true } in
  let cluster = Cluster.create ~seed:33 ~num_clients:1 ~service:(Service.counter ()) cfg in
  let c = Cluster.client cluster 0 in
  let results = ref [] in
  let invoke_n n k =
    let rec go i =
      if i < n then Client.invoke c "incr" (fun r -> results := r :: !results; go (i + 1))
      else k ()
    in
    go 0
  in
  Client.join c ~idbuf:"alice:pw" (function
    | Some _ -> invoke_n 20 (fun () -> ())
    | None -> Alcotest.fail "join denied");
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check int) "pre-crash ops executed" 20 (List.length !results);
  Cluster.crash_replica cluster 2;
  Cluster.run cluster ~seconds:0.3;
  Cluster.restart_replica cluster 2;
  Cluster.run cluster ~seconds:2.0;
  let r2 = Cluster.replica cluster 2 in
  Alcotest.(check int) "membership reloaded from checkpoint" 1
    (Membership.count (Replica.membership r2));
  invoke_n 20 (fun () -> ());
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check int) "post-restart ops executed" 40 (List.length !results);
  Alcotest.(check string) "counter continued exactly-once" "40" (List.hd !results);
  Alcotest.(check int) "restarted replica executed them too"
    (Replica.last_executed (Cluster.replica cluster 0))
    (Replica.last_executed r2)

let test_restart_mid_speculation_safe () =
  (* Regression: pending speculative state (executed-but-uncommitted
     batches) dies with the crash; the restarted replica must come back
     through the committed checkpoint + transfer without tentative state
     leaking into its store. *)
  let cfg =
    { (crash_cfg ()) with Config.pipeline_depth = 4; cores = 2 }
  in
  let cluster = run_single_client_workload ~crash:(Some (2, 0.6, 0.2)) cfg in
  let live = Array.to_list (Cluster.replicas cluster) in
  (match Harness.Run.safety live with
  | [] -> ()
  | fs -> Alcotest.failf "%s" (String.concat "; " fs));
  let r2 = Cluster.replica cluster 2 in
  Alcotest.(check int) "caught up after speculative crash"
    (Replica.last_executed (Cluster.replica cluster 0))
    (Replica.last_executed r2)

let test_restart_recovery_mode_ends () =
  (* Regression (stale volatile flag): [restart] sets [recovering] and
     nothing ever cleared it, so a rejoined replica stayed in recovery
     mode forever — permanently lenient §2.5 replay validation and a
     watchdog that could never escalate. Recovery must end once a
     checkpoint quorum certifies state the replica executed itself. *)
  let cluster = run_single_client_workload ~crash:(Some (2, 0.6, 0.2)) (crash_cfg ()) in
  let r2 = Cluster.replica cluster 2 in
  (match Replica.recovery_completed_at r2 with
  | None -> Alcotest.fail "rejoin never completed"
  | Some _ -> ());
  Alcotest.(check bool) "recovery mode ended" false (Replica.is_recovering r2)

let test_restart_replays_lost_bodies () =
  (* Regression (§2.4 wedge on the rejoin path): every request is big by
     default, and the bodies table dies with the crash. The batches the
     victim must replay between its rejoin checkpoint and the live head
     reference bodies whose client multicasts it slept through — and
     those clients were answered long ago, so nothing retransmits. A
     recovering replica must fetch the bodies from its peers; before it
     did, it sat wedged on the first missing body until a checkpoint
     quorum demoted it into a full state transfer (a journal hole), and
     at low checkpoint rates it wedged for good, escalating view
     changes the whole time. A clean rejoin replays everything itself:
     one rejoin transfer, no demotion rescue, no view changes. *)
  let cluster = run_single_client_workload ~crash:(Some (2, 0.6, 0.2)) (crash_cfg ()) in
  let r2 = Cluster.replica cluster 2 in
  (* At most one demotion: a checkpoint quorum can race past the victim
     while it replays (a §2.4 lag, repaired by transfer). Pre-fix the
     victim could not execute the replay region at all — every batch
     stalled on a body it had no way to obtain — and lurched from
     demotion to demotion without ever replaying an entry itself. *)
  Alcotest.(check bool)
    (Printf.sprintf "at most one demotion (%d)" (counted cluster r2 "demotion_transfers"))
    true
    (counted cluster r2 "demotion_transfers" <= 1);
  Alcotest.(check int) "one rejoin transfer" 1 (counted cluster r2 "rejoin_transfers");
  Alcotest.(check int) "replayed to the head"
    (Replica.last_executed (Cluster.replica cluster 0))
    (Replica.last_executed r2);
  Alcotest.(check int) "no view changes anywhere" 0
    (Array.fold_left (fun acc r -> acc + counted cluster r "view_changes") 0 (Cluster.replicas cluster))

let test_restart_no_view_thrash_two_incidents () =
  (* Regression (stale view-change votes): a rejoining replica's solo
     View_change votes used to linger in every peer's per-view tables;
     the next incident's first fresh vote then combined with them into a
     fake f+1 join quorum and the group cascaded through every view the
     first victim had named. Two sequential backup incidents must leave
     the view untouched. *)
  let cfg = crash_cfg () in
  let cluster = Cluster.create ~seed:123 ~num_clients:1 ~service:(Service.kv_store ()) cfg in
  let engine = Cluster.engine cluster in
  let cl = Cluster.client cluster 0 in
  let seq = ref 0 in
  let rec loop _ =
    if !seq < 160 then begin
      incr seq;
      Client.invoke cl
        (Printf.sprintf "put k%d v%d.%s" (!seq mod 8) !seq (String.make 24 'v'))
        (fun _ -> Simnet.Engine.schedule engine ~delay:0.02 (fun () -> loop ""))
    end
  in
  loop "";
  List.iter
    (fun (victim, crash_at, downtime) ->
      Simnet.Engine.schedule engine ~delay:crash_at (fun () -> Cluster.crash_replica cluster victim);
      Simnet.Engine.schedule engine ~delay:(crash_at +. downtime) (fun () ->
          Cluster.restart_replica cluster victim))
    [ (2, 0.5, 0.3); (3, 1.6, 0.3) ];
  Cluster.run cluster ~seconds:20.0;
  Alcotest.(check int) "workload drained" 160 !seq;
  Array.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d stayed in view 0" (Replica.id r))
        0 (Replica.view r))
    (Cluster.replicas cluster);
  let r0 = Cluster.replica cluster 0 in
  Array.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d at head" (Replica.id r))
        (Replica.last_executed r0) (Replica.last_executed r))
    (Cluster.replicas cluster)

let test_restart_primary_relearns_its_view () =
  (* Regression (stale view at rejoin): a restarted replica comes back
     in view 0 and must relearn the cluster's view. The old path — the
     installing primary replays its New_view — is itself volatile: here
     the current view's installer is the replica that restarts, so
     nobody holds the certificate and only the f+1 status-gossip
     adoption can teach it. Without adoption the group wedges (its
     primary leads a view it does not know it leads) until watchdogs
     force yet another view change. *)
  let cfg = crash_cfg () in
  let cluster = Cluster.create ~seed:123 ~num_clients:1 ~service:(Service.kv_store ()) cfg in
  let engine = Cluster.engine cluster in
  let cl = Cluster.client cluster 0 in
  let phase2 = ref 0 and phase1 = ref 0 in
  let invoke_n counter n k =
    let rec go _ =
      if !counter < n then begin
        incr counter;
        Client.invoke cl
          (Printf.sprintf "put p%d v%d.%s" (!counter mod 8) !counter (String.make 24 'v'))
          (fun _ -> Simnet.Engine.schedule engine ~delay:0.01 (fun () -> go ""))
      end
      else k ()
    in
    go ""
  in
  (* Phase 1: crash the view-0 primary mid-traffic; the group fails over
     to view 1 (primary = replica 1) and the old primary rejoins. *)
  Simnet.Engine.schedule engine ~delay:0.2 (fun () -> Cluster.crash_replica cluster 0);
  Simnet.Engine.schedule engine ~delay:0.6 (fun () -> Cluster.restart_replica cluster 0);
  invoke_n phase1 48 (fun () -> ());
  Cluster.run cluster ~seconds:8.0;
  Alcotest.(check int) "phase 1 drained" 48 !phase1;
  Alcotest.(check int) "failed over to view 1" 1 (Replica.view (Cluster.replica cluster 2));
  (* Phase 2: with traffic quiescent, bounce the view-1 primary itself.
     No view change happens (nothing is starved), so when it returns the
     cluster is still in view 1 — a view only status gossip can teach
     it, its own New_view certificate having died with the crash. *)
  Cluster.crash_replica cluster 1;
  Cluster.run cluster ~seconds:0.3;
  Cluster.restart_replica cluster 1;
  Cluster.run cluster ~seconds:2.0;
  Alcotest.(check int) "restarted primary adopted view 1" 1 (Replica.view (Cluster.replica cluster 1));
  (* It must now actually lead: traffic flows without a further view
     change. *)
  invoke_n phase2 32 (fun () -> ());
  Cluster.run cluster ~seconds:8.0;
  Alcotest.(check int) "phase 2 drained under the rejoined primary" 32 !phase2;
  Array.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d still in view 1" (Replica.id r))
        1 (Replica.view r))
    (Cluster.replicas cluster);
  let r0 = Cluster.replica cluster 0 in
  Array.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d at head" (Replica.id r))
        (Replica.last_executed r0) (Replica.last_executed r))
    (Cluster.replicas cluster)

(* --- bounded memory --- *)

let digest_item c d =
  Message.Digest_of { bd_client = c; bd_id = c; bd_digest = d; bd_readonly = false }

let test_log_retire_keeps_referenced () =
  (* A new primary may re-propose, above the stable checkpoint, a request
     an earlier sequence number also carried: retiring the old slot must
     not orphan a body the live one still names. *)
  let log = Log.create () in
  let set seq items = (Log.entry log seq).Log.batch <- Some items in
  let x = String.make 32 'x' and y = String.make 32 'y' and z = String.make 32 'z' in
  set 2 [ digest_item 1 y; digest_item 2 x ];
  set 3 [ Message.Full sample_request; digest_item 1 y ];
  set 4 [ digest_item 3 z ];
  set 7 [ digest_item 2 x ];
  let retired = Log.set_low_watermark log 5 in
  Alcotest.(check (list string)) "orphaned in slot order" [ y; y; z ] retired.Log.orphaned;
  Alcotest.(check bool) "re-proposed digest survives" true (retired.Log.still_live x);
  Alcotest.(check bool) "retired digest is not live" false (retired.Log.still_live y);
  Alcotest.(check int) "only the slot above the mark is left" 1 (Log.length log)

let test_table1_retained_bounded () =
  (* Every table that grows with requests must stay within a ceiling
     derived from [log_window] (Run.retained_bound), and that
     ceiling does not depend on how long the run is: the 3 s run is held
     to the same numbers as the 1 s run. *)
  let cfg = Config.default ~f:1 in
  List.iter
    (fun seconds ->
      let spec = { (Harness.Run.closed cfg) with Harness.Run.seed = 1; duration = seconds } in
      let result = Harness.Run.run spec in
      let cluster = Harness.Run.cluster result.Harness.Run.deployment 0 in
      let completed = Harness.Run.e2e result "completed" in
      let bound = Replica.retained_fields (Harness.Run.retained_bound spec) in
      Alcotest.(check bool) (Printf.sprintf "%.0f s run made progress" seconds) true (completed > 1000.0);
      Array.iter
        (fun r ->
          List.iter2
            (fun (name, v) (_, ceiling) ->
              Alcotest.(check bool)
                (Printf.sprintf "%.0f s, replica %d: %s %d <= %d" seconds (Replica.id r) name v
                   ceiling)
                true (v <= ceiling))
            (Replica.retained_fields (Replica.retained r))
            bound;
          Alcotest.(check int) "no unanswered body aged out" 0 (counted cluster r "aged_out_unanswered"))
        (Cluster.replicas cluster))
    [ 1.0; 3.0 ]

let test_orphan_body_aged_out () =
  (* A retransmission of a request that executed long ago re-stores its
     body, and no proposal will ever name it again. The age bound must
     reclaim it once the replica has executed [log_window] more sequence
     numbers — without counting it as unanswered. *)
  let cfg = { (Config.default ~f:1) with Config.checkpoint_interval = 16; log_window = 32 } in
  let cluster = Cluster.create ~seed:66 ~num_clients:2 cfg in
  let cl0 = Cluster.client cluster 0 and cl1 = Cluster.client cluster 1 in
  let rq =
    {
      Message.rq_client = Option.get (Client.client_id cl0);
      rq_id = 1;
      rq_op = "first";
      rq_readonly = false;
      rq_timestamp = 0.0;
    }
  in
  let answered = ref false in
  Client.invoke cl0 rq.rq_op (fun _ -> answered := true);
  let filler = ref true in
  let rec loop _ = if !filler then Client.invoke cl1 "filler" loop in
  loop "";
  Cluster.run cluster ~seconds:1.0;
  Alcotest.(check bool) "original answered" true !answered;
  let r2 = Cluster.replica cluster 2 in
  let d = Message.request_digest rq in
  Alcotest.(check bool) "executed body retired with its checkpoint" false (Replica.holds_body r2 d);
  let payload = Message.Request_msg rq in
  Simnet.Net.send (Cluster.net cluster) ~src:(Client.addr cl0) ~dst:2
    (Message.seal payload (Message.Macs [ (2, Client.session_key_for cl0 2) ])).frame;
  Cluster.run cluster ~seconds:0.01;
  Alcotest.(check bool) "retransmission re-stored the body" true (Replica.holds_body r2 d);
  let aged = counted cluster r2 "bodies_aged_out" and seqs = Replica.last_executed r2 in
  Cluster.run cluster ~seconds:1.0;
  filler := false;
  Alcotest.(check bool)
    "replica executed past the age bound and a checkpoint"
    true
    (Replica.last_executed r2 - seqs > cfg.log_window + cfg.checkpoint_interval);
  Alcotest.(check bool) "orphan aged out" false (Replica.holds_body r2 d);
  Alcotest.(check bool) "counted as aged out" true (counted cluster r2 "bodies_aged_out" > aged);
  Alcotest.(check int) "not counted as unanswered" 0 (counted cluster r2 "aged_out_unanswered")

(* Key-refresh rollover: after a replica installs a new key for a
   client, a request MACed under the old one, sent with no delivery note
   so the tag must be recomputed, still verifies through the previous
   key; a tag under neither key fails. *)
let test_rollover_tag_verifies_by_recomputation () =
  let cluster = Cluster.create ~seed:67 ~num_clients:1 (Config.default ~f:1) in
  Cluster.run cluster ~seconds:0.1;
  let cl = Cluster.client cluster 0 and r2 = Cluster.replica cluster 2 in
  let old_key = Client.session_key_for cl 2 in
  let rng = Util.Rng.create 9 in
  Replica.install_session_key r2 ~addr:(Client.addr cl) (Crypto.Mac.fresh_key rng);
  let send key id =
    let payload =
      Message.Request_msg
        {
          Message.rq_client = Option.get (Client.client_id cl);
          rq_id = 1000 + id;
          rq_op = "rollover";
          rq_readonly = false;
          rq_timestamp = 0.0;
        }
    in
    let before = counted cluster r2 "auth_failures" in
    Simnet.Net.send (Cluster.net cluster) ~src:(Client.addr cl) ~dst:2
      (Message.seal payload (Message.Macs [ (2, key) ])).frame;
    Cluster.run cluster ~seconds:0.01;
    counted cluster r2 "auth_failures" - before
  in
  Alcotest.(check int) "tag under the previous key verifies" 0 (send old_key 1);
  Alcotest.(check int) "tag under another key fails" 1 (send (Crypto.Mac.fresh_key rng) 2)

(* A restarted view-0 primary comes back believing it leads and queues
   the requests clients multicast to it; it proposes what it can before
   status gossip teaches it the group's view, and rejoins by transfer.
   Shared by the two regressions below: six looping clients, the primary
   down from 0.2 s to 0.6 s, then one quiet second. *)
let demoted_primary_run =
  lazy
    (let cfg = crash_cfg () in
     let cluster = Cluster.create ~seed:123 ~num_clients:6 cfg in
     let engine = Cluster.engine cluster in
     let stop = ref false in
     Array.iter
       (fun cl ->
         let rec loop _ = if not !stop then Client.invoke cl "op" loop in
         loop "")
       (Cluster.clients cluster);
     Simnet.Engine.schedule engine ~delay:0.2 (fun () -> Cluster.crash_replica cluster 0);
     Simnet.Engine.schedule engine ~delay:0.6 (fun () -> Cluster.restart_replica cluster 0);
     Cluster.run cluster ~seconds:3.0;
     stop := true;
     Cluster.run cluster ~seconds:1.0;
     cluster)

let test_demoted_primary_drops_queue () =
  (* Regression: the one batch the restarted primary proposes is ignored
     by the view-1 group, so the rest of its queue never drains. When
     status gossip teaches it view 1, the queue and the in_flight marks
     that route retransmissions away from its watchdog must go with the
     role. *)
  let cluster = Lazy.force demoted_primary_run in
  let r0 = Cluster.replica cluster 0 in
  Alcotest.(check bool) "group moved past view 0" true (Replica.view (Cluster.replica cluster 1) > 0);
  Alcotest.(check int) "restarted replica adopted the group's view"
    (Replica.view (Cluster.replica cluster 1)) (Replica.view r0);
  Alcotest.(check bool) "and does not lead it" false (Replica.is_primary r0);
  Alcotest.(check int) "no stale primary queue" 0 (Replica.retained r0).Replica.pending

let test_rejoin_drops_transferred_in_flight () =
  (* Regression: the batches the restarted primary proposed mark their
     requests in flight at sequence numbers the rejoin transfer then
     installs state past, so they are never executed here and nothing
     else removes the marks. A replica that later leads with such a mark
     treats the client's retransmission as already being ordered and
     never proposes it. After the rejoin and quiescence no replica may
     hold a mark. *)
  let cluster = Lazy.force demoted_primary_run in
  Alcotest.(check bool) "the restarted replica rejoined by transfer" true
    (counted cluster (Cluster.replica cluster 0) "rejoin_transfers" > 0);
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "replica %d holds no in_flight mark" i) 0
        (Replica.retained r).Replica.in_flight)
    (Cluster.replicas cluster)

(* --- session state (§3.3.2) --- *)

let test_session_state_unit () =
  let pages = Statemgr.Pages.create ~page_size:4096 ~num_pages:8 () in
  let store = Session_state.create pages ~first_page:0 ~pages:8 in
  Session_state.set store ~client:1 ~key:"cart" "apples";
  Session_state.set store ~client:1 ~key:"step" "2";
  Session_state.set store ~client:2 ~key:"cart" "pears";
  Alcotest.(check (option string)) "get own" (Some "apples")
    (Session_state.get store ~client:1 ~key:"cart");
  Alcotest.(check (option string)) "isolated per session" (Some "pears")
    (Session_state.get store ~client:2 ~key:"cart");
  Alcotest.(check (list string)) "keys" [ "cart"; "step" ] (Session_state.session_keys store ~client:1);
  Session_state.set store ~client:1 ~key:"cart" "bananas";
  Alcotest.(check (option string)) "overwrite" (Some "bananas")
    (Session_state.get store ~client:1 ~key:"cart");
  Session_state.remove store ~client:1 ~key:"step";
  Alcotest.(check (option string)) "removed" None (Session_state.get store ~client:1 ~key:"step");
  Session_state.end_session store ~client:1;
  Alcotest.(check (list string)) "session wiped" [] (Session_state.session_keys store ~client:1);
  Alcotest.(check (list int)) "other survives" [ 2 ] (Session_state.sessions store);
  (* The image lives in the region: a fresh handle over the same pages
     sees the same contents (restart / state transfer). *)
  let store2 = Session_state.create pages ~first_page:0 ~pages:8 in
  Alcotest.(check (option string)) "persistent in region" (Some "pears")
    (Session_state.get store2 ~client:2 ~key:"cart")

let test_session_state_cache_follows_generation () =
  (* The store memoizes the decoded image keyed on [Pages.generation]:
     out-of-band page replacement (state transfer via [load_page],
     rollback via [restore_page]) bumps the generation, so a stale
     decode must never be served afterwards. *)
  let pages = Statemgr.Pages.create ~page_size:4096 ~num_pages:8 () in
  let store = Session_state.create pages ~first_page:0 ~pages:8 in
  Session_state.set store ~client:1 ~key:"k" "old";
  Alcotest.(check (option string)) "warm cache" (Some "old")
    (Session_state.get store ~client:1 ~key:"k");
  let snap = Statemgr.Pages.snapshot pages in
  (* A state transfer lands a different image over the same handle. *)
  let pages2 = Statemgr.Pages.create ~page_size:4096 ~num_pages:8 () in
  let store2 = Session_state.create pages2 ~first_page:0 ~pages:8 in
  Session_state.set store2 ~client:1 ~key:"k" "transferred";
  for i = 0 to 7 do
    Statemgr.Pages.load_page pages i (Statemgr.Pages.page pages2 i)
  done;
  Alcotest.(check (option string)) "sees transferred image" (Some "transferred")
    (Session_state.get store ~client:1 ~key:"k");
  (* A rollback restores the snapshot: the cache must follow again. *)
  for i = 0 to 7 do
    Statemgr.Pages.restore_page pages snap i
  done;
  Alcotest.(check (option string)) "sees rolled-back image" (Some "old")
    (Session_state.get store ~client:1 ~key:"k")

let test_session_state_cleared_on_takeover () =
  (* A re-join under the same identity terminates the old session; the
     middleware must wipe its session-mapped state (§3.3.2). *)
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true } in
  let cluster = Cluster.create ~seed:105 ~num_clients:2 ~service:(Service.session_kv ()) cfg in
  let c0 = Cluster.client cluster 0 and c1 = Cluster.client cluster 1 in
  let phase = ref "start" in
  Client.join c0 ~idbuf:"alice:pw" (function
    | Some _ ->
      Client.invoke c0 "sput secret ballot-draft" (fun _ ->
          phase := "stored";
          (* Same identity joins from another address: takeover. *)
          Client.join c1 ~idbuf:"alice:pw" (function
            | Some _ ->
              Client.invoke c1 "skeys" (fun keys -> phase := "keys:" ^ keys)
            | None -> phase := "takeover-denied"))
    | None -> phase := "join-denied");
  Cluster.run cluster ~seconds:20.0;
  (* The new session starts empty: the old session's data is gone. *)
  Alcotest.(check string) "old session state wiped on takeover" "keys:" !phase

let test_session_state_survives_transfer () =
  let cfg = Config.default ~f:1 in
  let cluster = Cluster.create ~seed:106 ~num_clients:2 ~service:(Service.session_kv ()) cfg in
  let c0 = Cluster.client cluster 0 in
  let stop = ref false in
  (* background load so checkpoints advance *)
  let cl1 = Cluster.client cluster 1 in
  let rec churn _ = if not !stop then Client.invoke cl1 "sput noise x" churn in
  churn "";
  let got = ref "" in
  Client.invoke c0 "sput sticky value-123" (fun _ -> ());
  Simnet.Engine.schedule (Cluster.engine cluster) ~delay:0.2 (fun () ->
      Simnet.Net.drop_next_matching (Cluster.net cluster) (fun ~src ~dst ~label ->
          src >= Types.client_addr_base && dst = 2 && label = "request"));
  Cluster.run cluster ~seconds:4.0;
  stop := true;
  Client.invoke c0 "sget sticky" (fun r -> got := r);
  Cluster.run cluster ~seconds:3.0;
  Alcotest.(check string) "session data after state transfer" "value-123" !got;
  Alcotest.(check bool) "a transfer actually happened" true
    (let r2 = Cluster.replica cluster 2 in
     counted cluster r2 "demotion_transfers" + counted cluster r2 "rejoin_transfers" >= 1)

(* Randomized wire-format fuzzing: every payload constructor under
   every kind of auth round-trips and re-encodes to the same bytes,
   encoding allocates one frame, and arbitrary byte strings never crash
   the decoder. Strings reach 8 KiB and ints nine varint bytes, so
   frames cross the minor heap's size limit and every prefix width. *)
let gen_int =
  QCheck.Gen.(oneof [ int_bound 127; int_bound 1_000_000; map (fun i -> i land max_int) int ])

let gen_str = QCheck.Gen.(string_size (oneof [ int_bound 40; int_bound 300; int_bound 8192 ]))
let gen_list g = QCheck.Gen.(list_size (int_bound 4) g)

let gen_request =
  let open QCheck.Gen in
  let+ rq_client = gen_int
  and+ rq_id = gen_int
  and+ rq_op = gen_str
  and+ rq_readonly = bool
  and+ rq_timestamp = float in
  { Message.rq_client; rq_id; rq_op; rq_readonly; rq_timestamp }

let gen_batch_item =
  let open QCheck.Gen in
  oneof
    [
      map (fun r -> Message.Full r) gen_request;
      (let+ bd_client = gen_int and+ bd_id = gen_int and+ bd_digest = gen_str and+ bd_readonly = bool in
       Message.Digest_of { bd_client; bd_id; bd_digest; bd_readonly });
    ]

let gen_payload =
  let open QCheck.Gen in
  let batch = gen_list gen_batch_item in
  oneof
    [
      map (fun r -> Message.Request_msg r) gen_request;
      (let+ pp_view = gen_int and+ pp_seq = gen_int and+ pp_batch = batch and+ pp_nondet = gen_str in
       Message.Pre_prepare { pp_view; pp_seq; pp_batch; pp_nondet });
      (let+ p_view = gen_int and+ p_seq = gen_int and+ p_digest = gen_str and+ p_replica = gen_int in
       Message.Prepare { p_view; p_seq; p_digest; p_replica });
      (let+ c_view = gen_int and+ c_seq = gen_int and+ c_digest = gen_str and+ c_replica = gen_int in
       Message.Commit { c_view; c_seq; c_digest; c_replica });
      (let+ r_view = gen_int
       and+ r_client = gen_int
       and+ r_id = gen_int
       and+ r_replica = gen_int
       and+ r_result = gen_str
       and+ r_tentative = bool
       and+ r_partial = opt gen_str in
       Message.Reply { r_view; r_client; r_id; r_replica; r_result; r_tentative; r_partial });
      (let+ ck_seq = gen_int and+ ck_digest = gen_str and+ ck_replica = gen_int in
       Message.Checkpoint_msg { ck_seq; ck_digest; ck_replica });
      (let+ vc_new_view = gen_int
       and+ vc_stable_seq = gen_int
       and+ vc_stable_digest = gen_str
       and+ vc_prepared =
         gen_list
           (let+ pi_view = gen_int
            and+ pi_seq = gen_int
            and+ pi_digest = gen_str
            and+ pi_batch = batch in
            { Message.pi_view; pi_seq; pi_digest; pi_batch })
       and+ vc_replica = gen_int in
       Message.View_change { vc_new_view; vc_stable_seq; vc_stable_digest; vc_prepared; vc_replica });
      (let+ nv_view = gen_int
       and+ nv_view_change_digests = gen_list (pair gen_int gen_str)
       and+ nv_pre_prepares = gen_list (pair gen_int batch) in
       Message.New_view { nv_view; nv_view_change_digests; nv_pre_prepares });
      (let+ sk_sender = gen_int and+ sk_target = gen_int and+ sk_key_box = gen_str in
       Message.Session_key { sk_sender; sk_target; sk_key_box });
      (let+ j_addr = gen_int and+ j_pubkey = gen_str and+ j_nonce = gen_str in
       Message.Join_request { j_addr; j_pubkey; j_nonce });
      (let+ jc_replica = gen_int and+ jc_addr = gen_int and+ jc_nonce = gen_str in
       Message.Join_challenge { jc_replica; jc_addr; jc_nonce });
      (let+ jr_addr = gen_int and+ jr_proof = gen_str and+ jr_pubkey = gen_str and+ jr_idbuf = gen_str in
       Message.Join_response { jr_addr; jr_proof; jr_pubkey; jr_idbuf });
      (let+ jl_replica = gen_int and+ jl_client = gen_int and+ jl_ok = bool in
       Message.Join_reply { jl_replica; jl_client; jl_ok });
      map (fun lv_client -> Message.Leave_msg { lv_client }) gen_int;
      (let+ fm_seq = gen_int and+ fm_replica = gen_int in
       Message.Fetch_meta { fm_seq; fm_replica });
      (let+ sm_seq = gen_int and+ sm_replica = gen_int and+ sm_leaves = gen_list gen_str in
       Message.State_meta { sm_seq; sm_replica; sm_leaves });
      (let+ fp_seq = gen_int and+ fp_pages = gen_list gen_int and+ fp_replica = gen_int in
       Message.Fetch_pages { fp_seq; fp_pages; fp_replica });
      (let+ sp_seq = gen_int and+ sp_replica = gen_int and+ sp_pages = gen_list (pair gen_int gen_str) in
       Message.State_pages { sp_seq; sp_replica; sp_pages });
      (let+ fb_digest = gen_str and+ fb_replica = gen_int in
       Message.Fetch_body { fb_digest; fb_replica });
      map (fun b_request -> Message.Body { b_request }) gen_request;
      (let+ fe_seq = gen_int and+ fe_replica = gen_int in
       Message.Fetch_entry { fe_seq; fe_replica });
      (let+ en_seq = gen_int and+ en_view = gen_int and+ en_batch = batch and+ en_nondet = gen_str in
       Message.Entry { en_seq; en_view; en_batch; en_nondet });
      (let+ st_replica = gen_int and+ st_view = gen_int and+ st_last_exec = gen_int in
       Message.Status { st_replica; st_view; st_last_exec });
      map (fun kq_replica -> Message.Key_request { kq_replica }) gen_int;
    ]

(* Authenticator ids travel as u16. *)
let gen_auth =
  let open QCheck.Gen in
  oneof
    [
      return Message.No_auth;
      map (fun s -> Message.Signed s) gen_str;
      map
        (fun tags -> Message.Authenticated { Crypto.Authenticator.tags })
        (gen_list (pair (int_bound 0xffff) gen_str));
    ]

let arb_message =
  QCheck.make
    ~print:(fun (m : Message.t) ->
      Printf.sprintf "%s %s (%d bytes)" (Message.label m.payload) (Message.describe m.payload)
        (String.length (Message.encode m)))
    QCheck.Gen.(map2 (fun payload auth -> { Message.payload; auth }) gen_payload gen_auth)

(* [compare], not [=]: a NaN timestamp equals itself there. *)
let prop_payload_roundtrip =
  QCheck.Test.make ~name:"random payloads roundtrip" ~count:500 arb_message (fun msg ->
      let wire = Message.encode msg in
      match Message.decode_framed wire with
      | Some f ->
        compare f.msg msg = 0
        && String.equal (Message.encode f.msg) wire
        && f.pb_pos + f.pb_len <= String.length wire
        && String.equal (Message.framed_of msg).frame wire
      | None -> false)

let words_allocated f = int_of_float (Gcwords.allocated f)

(* One string of [n] bytes: a header and [n / 8 + 1] words of data. *)
let string_words n = 1 + ((n + 8) / 8)

(* What [Message.encode] allocates beyond its frame, measured, the same
   for every message: three writers (two only count), the boxed size,
   the write's closure and auth cell, the framed record and its
   message, and the closure that hands over the known auth. A size off
   by one byte costs a growth or a copy of the frame, at least two
   words more. *)
let encode_overhead_words = 39

(* [Message.seal] allocates as [encode] does, plus the auth it
   computes instead of reading: 21 words per MAC tag and 13 besides, or
   36 for a simulated signature. The frame's size then comes from
   [Authenticator.size_for] or [Keychain.signature_size]. *)
let seal_keys = List.init 4 (fun i -> (i, Crypto.Mac.key_of_bytes (String.make 16 (Char.chr (65 + i)))))
let seal_signer = Crypto.Keychain.make Crypto.Keychain.Simulated (Util.Rng.create 1) ~id:0

let sealers =
  (Message.Sign seal_signer, 36)
  :: List.map (fun k -> (Message.Macs (List.filteri (fun i _ -> i < k) seal_keys), 13 + (21 * k))) [ 0; 1; 4 ]

let prop_encode_allocates_one_frame =
  QCheck.Test.make ~name:"encode allocates one frame" ~count:300 arb_message (fun msg ->
      let within what frame words extra =
        words <= string_words frame + encode_overhead_words + extra
        || QCheck.Test.fail_reportf "%s: %d words for a %d-byte frame (%d words + %d + %d)" what
             words frame (string_words frame) encode_overhead_words extra
      in
      let frame = String.length (Message.encode msg) in
      within "encode" frame
        (words_allocated (fun () -> ignore (Sys.opaque_identity (Message.encode msg))))
        0
      && List.for_all
           (fun (sealer, extra) ->
             let frame = String.length (Message.seal msg.payload sealer).frame in
             within "seal" frame
               (words_allocated (fun () ->
                    ignore (Sys.opaque_identity (Message.seal msg.payload sealer))))
               extra)
           sealers)

let prop_decoder_never_crashes =
  QCheck.Test.make ~name:"arbitrary bytes never crash the decoder" ~count:2000 QCheck.string
    (fun bytes ->
      match Message.decode bytes with Some _ -> true | None -> true)

(* --- adversarial inputs --- *)

(* Inject raw forged datagrams: without the real sender's keys they must
   be dropped by authentication and leave safety untouched. *)
let test_spoofed_messages_ignored () =
  let cfg = Config.default ~f:1 in
  let cluster = Cluster.create ~seed:101 ~num_clients:2 ~service:(Service.counter ()) cfg in
  let net = Cluster.net cluster in
  let engine = Cluster.engine cluster in
  (* A "Byzantine" node spoofing replica 3: unsigned and garbage-signed
     protocol messages, plus a forged client request. *)
  let forged_commit =
    Message.encode
      {
        Message.payload =
          Message.Commit { c_view = 0; c_seq = 1; c_digest = String.make 32 'e'; c_replica = 3 };
        auth = Message.Signed "not-a-real-signature";
      }
  in
  let forged_request =
    Message.encode
      {
        Message.payload =
          Message.Request_msg
            { rq_client = 1; rq_id = 999; rq_op = "incr"; rq_readonly = false; rq_timestamp = 0.0 };
        auth = Message.No_auth;
      }
  in
  let inject () =
    for dst = 0 to 3 do
      Simnet.Net.send net ~src:3 ~dst forged_commit;
      Simnet.Net.send net ~src:1001 ~dst forged_request
    done
  in
  ignore (Simnet.Engine.periodic engine ~interval:0.05 inject);
  let done_ = ref 0 in
  Array.iter
    (fun cl ->
      let rec go n = if n <= 5 then Client.invoke cl "incr" (fun _ -> incr done_; go (n + 1)) in
      go 1)
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check int) "all real requests complete" 10 !done_;
  (* No forged execution: the counter advanced exactly once per request. *)
  let final = ref "" in
  Client.invoke (Cluster.client cluster 0) ~readonly:true "get" (fun r -> final := r);
  Cluster.run cluster ~seconds:2.0;
  Alcotest.(check string) "no forged executions" "10" !final;
  Alcotest.(check bool) "forgeries counted as auth failures" true
    (Array.exists (fun r -> counted cluster r "auth_failures" > 0) (Cluster.replicas cluster))

let test_tampered_wire_dropped () =
  (* Bit-flip every 7th datagram in flight by wrapping... simpler: verify
     decode-or-auth failure on truncated/garbled wires at the message
     level, then that a cluster under such noise still progresses. *)
  let cfg = Config.default ~f:1 in
  let cluster = Cluster.create ~seed:103 ~num_clients:2 ~service:(Service.counter ()) cfg in
  let net = Cluster.net cluster in
  let engine = Cluster.engine cluster in
  ignore
    (Simnet.Engine.periodic engine ~interval:0.03 (fun () ->
         for dst = 0 to 3 do
           Simnet.Net.send net ~src:2 ~dst "\xde\xad\xbe\xef garbage bytes"
         done));
  let done_ = ref 0 in
  Array.iter
    (fun cl ->
      let rec go n = if n <= 4 then Client.invoke cl "incr" (fun _ -> incr done_; go (n + 1)) in
      go 1)
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check int) "progress despite garbage datagrams" 8 !done_

(* --- one cost path: serial mode is pipeline_depth = 1, cores = 1 --- *)

(* Nothing costs CPU but [merkle_leaf] and the rollback charges, so a
   replica's busy time is exactly those charges. *)
let zero_costs =
  {
    Costmodel.mac_gen = 0.0; mac_verify = 0.0; sign = 0.0; sig_verify = 0.0; digest_base = 0.0;
    digest_per_byte = 0.0; msg_fixed = 0.0; msg_per_byte = 0.0; exec_null = 0.0;
    log_bookkeeping = 0.0; merkle_leaf = 0.0; spec_overhead = 0.0; rollback_fixed = 0.0;
    rollback_per_page = 0.0;
  }

(* Op "k" writes one byte of page k mod 8 and costs nothing. [observe]
   sees the region's dirty pages after each write. *)
let page_writer ?(observe = fun _ -> ()) () =
  let app_pages = 8 and page_size = 4096 in
  {
    Service.name = "page-writer";
    page_size;
    app_pages;
    make =
      (fun pages ~first_page ->
        {
          Service.execute =
            (fun ~op ~client:_ ~timestamp:_ ~nondet:_ ~readonly:_ ->
              let pos = (first_page + (int_of_string op mod app_pages)) * page_size in
              Statemgr.Pages.notify_modify pages ~pos ~len:1;
              Statemgr.Pages.write pages ~pos op;
              observe pages;
              ("ok", 0.0));
          authorize_join = (fun ~idbuf:_ -> None);
          on_session_end = ignore;
        });
    classify_readonly = (fun _ -> false);
  }

let rec invoke_from cl k = Client.invoke cl (string_of_int k) (fun _ -> invoke_from cl (k + 1))

(* A serial checkpoint pays its Merkle rehash: d dirty pages add d x
   merkle_leaf to the replica's CPU. One client, one request per
   sequence number, so the execute that ends an interval sees the dirty
   set the checkpoint folds in. *)
let test_serial_checkpoint_charges_leaves () =
  let cfg = { (Config.default ~f:1) with Config.checkpoint_interval = 4; log_window = 8 } in
  let merkle_leaf = 1e-3 in
  let rep0 = ref None and folded = ref 0 in
  let observe pages =
    match !rep0 with
    | Some r
      when Replica.pages r == pages
           && (Replica.last_executed r + 1) mod cfg.checkpoint_interval = 0 ->
      folded := !folded + List.length (Statemgr.Pages.dirty pages)
    | Some _ | None -> ()
  in
  let cluster =
    Cluster.create ~seed:36 ~num_clients:1
      ~costs:{ zero_costs with merkle_leaf }
      ~service:(page_writer ~observe ()) cfg
  in
  let r = Cluster.replica cluster 0 in
  rep0 := Some r;
  invoke_from (Cluster.client cluster 0) 0;
  Cluster.run cluster ~seconds:0.5;
  Alcotest.(check bool) "checkpoints taken" true (Replica.stable_checkpoint r > 0);
  Alcotest.(check bool) "pages folded" true (!folded > 0);
  Alcotest.(check (float 1e-9)) "busy = d x merkle_leaf"
    (float_of_int !folded *. merkle_leaf)
    (Simnet.Cpu.total_busy (Replica.cpu r))

(* A serial tentative rollback pays rollback_fixed + rollback_per_page x
   pages. The backups' commits are dropped, so no batch gathers a commit
   quorum and every execution stays tentative; the mute primary forces
   the view change that rolls them back. With a
   fixed cost of 1 s and 2^-10 s per page (exact in binary) the busy
   time reads as whole rollbacks plus whole pages. *)
let test_serial_rollback_charged () =
  let cfg =
    { (Config.default ~f:1) with Config.view_change_timeout = 0.25; status_period = 0.0 }
  in
  let per_page = 1.0 /. 1024.0 in
  let cluster =
    Cluster.create ~seed:37 ~num_clients:1
      ~costs:{ zero_costs with rollback_fixed = 1.0; rollback_per_page = per_page }
      ~service:(page_writer ()) cfg
  in
  let net = Cluster.net cluster in
  (* The backups' commits: the primary's own links are left to the mute. *)
  for src = 1 to cfg.n - 1 do
    for dst = 0 to cfg.n - 1 do
      if src <> dst then Simnet.Net.set_link_drop net ~src ~dst (fun ~label -> label = "commit")
    done
  done;
  invoke_from (Cluster.client cluster 0) 0;
  Cluster.run cluster ~seconds:0.3;
  ignore (Adversary.install ~net ~cfg (Cluster.replica cluster 0) Adversary.Mute : Adversary.t);
  Cluster.run cluster ~seconds:2.0;
  let r = Cluster.replica cluster 1 in
  let busy = Simnet.Cpu.total_busy (Replica.cpu r) in
  let charged = Float.to_int busy in
  let pages = (busy -. Float.of_int charged) /. per_page in
  Alcotest.(check bool) "a view change happened" true (Replica.view r > 0);
  Alcotest.(check bool) "rolled back" true (counted cluster r "rollbacks" > 0);
  Alcotest.(check bool) "every rollback charged rollback_fixed" true
    (charged >= counted cluster r "rollbacks");
  Alcotest.(check bool) "restored pages charged per page" true
    (Float.is_integer pages && pages > 0.0)

(* --- replies: MACed under the client's session key --- *)

(* Every replica -> client link passes each wire through [f]. *)
let on_reply_links cluster cl f =
  for r = 0 to (Cluster.config cluster).Config.n - 1 do
    Simnet.Net.set_link_corrupt (Cluster.net cluster) ~src:r ~dst:(Client.addr cl)
      (fun ~dst:_ ~label:_ wire -> f r wire)
  done

let test_reply_one_mac_tag () =
  let cluster = Cluster.create ~seed:34 ~num_clients:1 (Config.default ~f:1) in
  let cl = Cluster.client cluster 0 in
  let caddr = Client.addr cl in
  let replies = ref 0 in
  on_reply_links cluster cl (fun r wire ->
      (match Message.decode_framed wire with
      | Some ({ msg = { payload = Message.Reply _; auth }; _ } as f) -> begin
        incr replies;
        match auth with
        | Message.Authenticated { tags = [ (dst, _) ] as tags } ->
          Alcotest.(check int) "the tag is the client's" caddr dst;
          Alcotest.(check bool) "under the key the client chose" true
            (Crypto.Authenticator.check ~key:(Client.session_key_for cl r) ~replica:caddr
               ~pos:f.pb_pos ~len:f.pb_len f.frame { tags })
        | Message.Authenticated _ | Message.Signed _ | Message.No_auth ->
          Alcotest.fail "a reply is not MACed with one tag"
      end
      | Some _ | None -> ());
      wire);
  let done_ = ref 0 in
  let rec go n = if n <= 3 then Client.invoke cl "op" (fun _ -> incr done_; go (n + 1)) in
  go 1;
  Cluster.run cluster ~seconds:1.0;
  Alcotest.(check int) "completed" 3 !done_;
  Alcotest.(check bool) "replies seen" true (!replies >= 3 * 3)

(* A reply re-tagged under a key the client never chose is rejected like
   any forgery: with every replica's replies re-tagged no quorum forms. *)
let test_reply_wrong_key_rejected () =
  let cluster = Cluster.create ~seed:35 ~num_clients:1 (Config.default ~f:1) in
  let cl = Cluster.client cluster 0 in
  let wrong = Crypto.Mac.fresh_key (Util.Rng.create 5) in
  on_reply_links cluster cl (fun _ wire ->
      match Message.decode wire with
      | Some { payload = Message.Reply _ as payload; _ } ->
        (Message.seal payload (Message.Macs [ (Client.addr cl, wrong) ])).frame
      | Some _ | None -> wire);
  let results = ref [] in
  Client.invoke cl "op" (fun r -> results := r :: !results);
  Cluster.run cluster ~seconds:2.0;
  Alcotest.(check (list string)) "no re-tagged reply accepted" [] !results;
  Alcotest.(check bool) "still retransmitting" true (Client.retransmissions cl > 0)

let () =
  Alcotest.run "pbft"
    [
      ( "messages",
        [
          Alcotest.test_case "all payloads roundtrip" `Quick test_message_roundtrips;
          Alcotest.test_case "garbage rejected" `Quick test_message_garbage;
          Alcotest.test_case "request digest" `Quick test_request_digest_stable;
          Alcotest.test_case "batch digest" `Quick test_batch_digest;
        ] );
      ("config", [ Alcotest.test_case "validation & naming" `Quick test_config_validation ]);
      ( "memory-bound",
        [
          Alcotest.test_case "watermark keeps re-proposed bodies" `Quick
            test_log_retire_keeps_referenced;
          Alcotest.test_case "table-1 retained state independent of run length" `Slow
            test_table1_retained_bounded;
          Alcotest.test_case "orphan body aged out" `Quick test_orphan_body_aged_out;
          Alcotest.test_case "demoted primary drops its queue" `Slow
            test_demoted_primary_drops_queue;
          Alcotest.test_case "rejoin drops transferred in_flight marks" `Slow
            test_rejoin_drops_transferred_in_flight;
        ] );
      ( "nondet",
        [
          Alcotest.test_case "policies" `Quick test_nondet_produce_validate;
          Alcotest.test_case "one draw per produce" `Quick test_nondet_draws_once;
        ] );
      ( "membership",
        [
          Alcotest.test_case "static table" `Quick test_membership_static;
          Alcotest.test_case "join ids" `Quick test_membership_join_assigns_ids;
          Alcotest.test_case "single session per identity" `Quick
            test_membership_single_session_per_identity;
          Alcotest.test_case "table full & stale cleanup" `Quick test_membership_full_and_cleanup;
          Alcotest.test_case "leave" `Quick test_membership_leave;
          Alcotest.test_case "serialize roundtrip" `Quick test_membership_serialize_roundtrip;
          Alcotest.test_case "stale cleanup order & touch" `Quick
            test_membership_stale_cleanup_order;
        ] );
      ( "log",
        [
          Alcotest.test_case "transitions" `Quick test_log_transitions;
          Alcotest.test_case "watermark gc" `Quick test_log_watermark_gc;
          Alcotest.test_case "reply cache" `Quick test_log_reply_cache;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "basic agreement" `Quick test_cluster_basic_agreement;
          Alcotest.test_case "replicas identical" `Quick test_cluster_replicas_identical;
          Alcotest.test_case "deterministic runs" `Quick test_cluster_deterministic_across_runs;
          Alcotest.test_case "counter semantics" `Quick test_cluster_counter_semantics;
          Alcotest.test_case "read-only optimization" `Quick test_cluster_readonly;
          Alcotest.test_case "no batching" `Quick test_cluster_nobatch_mode;
          Alcotest.test_case "signature mode" `Quick test_cluster_signatures_mode;
          Alcotest.test_case "f=2 cluster" `Quick test_cluster_f2;
          Alcotest.test_case "checkpoint stability" `Quick test_cluster_checkpoint_gc;
          Alcotest.test_case "view change on primary failure" `Slow
            test_cluster_view_change_on_primary_failure;
          Alcotest.test_case "lossy network exactly-once" `Slow
            test_cluster_retransmission_duplicate_suppression;
          Alcotest.test_case "body loss -> state transfer (§2.4)" `Slow
            test_cluster_body_loss_state_transfer;
          Alcotest.test_case "view-change backoff past two mute primaries" `Slow
            test_view_change_backoff_consecutive_mute_primaries;
          Alcotest.test_case "partition & auto-heal catch-up" `Slow
            test_cluster_partition_heal_catchup;
          Alcotest.test_case "receive-buffer overload (§2.4)" `Slow
            test_cluster_overload_recv_buffer_drops;
          Alcotest.test_case "restart recovery (§2.3)" `Slow test_cluster_restart_recovery;
          Alcotest.test_case "nondet replay policies (§2.5)" `Slow test_nondet_delta_blocks_replay;
        ] );
      ( "crash-restart",
        [
          Alcotest.test_case "Merkle-diff rejoin fetches fewer pages" `Slow
            test_restart_merkle_diff_fewer_pages;
          qcheck prop_crash_restart_equivalent;
          Alcotest.test_case "rejoin follows a collected checkpoint" `Slow
            test_restart_rejoin_follows_collected_checkpoint;
          Alcotest.test_case "client session keys reinstalled" `Slow
            test_restart_client_keys_reinstalled;
          Alcotest.test_case "exactly-once across restart" `Slow
            test_restart_exactly_once_counter;
          Alcotest.test_case "membership reloaded on restart" `Slow
            test_restart_dynamic_membership_reload;
          Alcotest.test_case "crash mid-speculation stays safe" `Slow
            test_restart_mid_speculation_safe;
          Alcotest.test_case "recovery mode ends after catch-up" `Slow
            test_restart_recovery_mode_ends;
          Alcotest.test_case "lost bodies refetched on rejoin (§2.4)" `Slow
            test_restart_replays_lost_bodies;
          Alcotest.test_case "no view thrash across two incidents" `Slow
            test_restart_no_view_thrash_two_incidents;
          Alcotest.test_case "restarted primary relearns its view" `Slow
            test_restart_primary_relearns_its_view;
          Alcotest.test_case "metrics cover every incarnation" `Slow
            test_restart_metrics_cover_incarnations;
        ] );
      ( "session-state",
        [
          Alcotest.test_case "store semantics (§3.3.2)" `Quick test_session_state_unit;
          Alcotest.test_case "cache follows page generation" `Quick
            test_session_state_cache_follows_generation;
          Alcotest.test_case "wiped on identity takeover" `Slow
            test_session_state_cleared_on_takeover;
          Alcotest.test_case "survives state transfer" `Slow test_session_state_survives_transfer;
        ] );
      ( "fuzz",
        [
          qcheck prop_payload_roundtrip;
          qcheck prop_encode_allocates_one_frame;
          qcheck prop_decoder_never_crashes;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "spoofed messages ignored" `Slow test_spoofed_messages_ignored;
          Alcotest.test_case "garbage datagrams dropped" `Slow test_tampered_wire_dropped;
          Alcotest.test_case "replies carry one MAC tag for their client" `Quick
            test_reply_one_mac_tag;
          Alcotest.test_case "reply under another key rejected" `Quick
            test_reply_wrong_key_rejected;
          Alcotest.test_case "rollover tag verifies by recomputation" `Quick
            test_rollover_tag_verifies_by_recomputation;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "serial checkpoint charges d x merkle_leaf" `Quick
            test_serial_checkpoint_charges_leaves;
          Alcotest.test_case "serial rollback charged" `Quick test_serial_rollback_charged;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "join then request" `Quick test_dynamic_join_and_request;
          Alcotest.test_case "join denied" `Quick test_dynamic_join_denied_bad_credentials;
          Alcotest.test_case "leave" `Quick test_dynamic_leave;
          Alcotest.test_case "ordered leave frees the slot" `Quick test_dynamic_ordered_leave;
          Alcotest.test_case "one lying challenger cannot wedge a join" `Quick
            test_dynamic_join_lying_challenge;
          Alcotest.test_case "leave stops the key rebroadcast" `Quick test_leave_stops_rebroadcast;
        ] );
    ]

