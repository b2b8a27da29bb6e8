(* End-to-end integration: the SQL state abstraction under PBFT, the
   e-voting application, and the experiment harness itself. *)

open Pbft

let sha_hex msg = Util.Hexdump.of_string (Crypto.Sha256.digest msg)
let state_digest r = Statemgr.Merkle.root (Statemgr.Merkle.build (Replica.pages r))

(* --- replicated SQL --- *)

let test_sql_service_basic () =
  let cluster =
    Cluster.create ~seed:1 ~num_clients:2 ~service:(Relsql.Pbft_service.service ())
      (Config.default ~f:1)
  in
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
  let c = Cluster.client cluster 0 in
  let reply = ref "" in
  Client.invoke c "INSERT INTO nonexistent (x) VALUES (1)" (fun r -> reply := r);
  Cluster.run cluster ~seconds:5.0;
  (* The reply completed, meaning f+1 replicas produced the *same* error. *)
  Alcotest.(check bool) "error reply" true
    (String.length !reply >= 6 && String.sub !reply 0 6 = "error:")

(* A read-only request runs unordered at every replica; flagging a write
   read-only (a Byzantine client, or a browser's JSON "readonly" field)
   must not smuggle it past agreement. Every replica refuses it, so the
   row never appears and the replicas' states stay identical. *)
let test_sql_readonly_write_refused () =
  let cluster =
    Cluster.create ~seed:5 ~num_clients:1 ~service:(Relsql.Pbft_service.service ())
      (Config.default ~f:1)
  in
  let c = Cluster.client cluster 0 in
  let refused = ref "" and count = ref "" in
  Client.invoke c ~readonly:true (Relsql.Pbft_service.insert_vote_sql ~voter:"v1" ~choice:"a")
    (fun r ->
      refused := r;
      Client.invoke c "SELECT COUNT(*) FROM votes" (fun r -> count := String.trim r));
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check bool) "refused with an error reply" true
    (String.starts_with ~prefix:"error:" !refused);
  Alcotest.(check bool) "no row" true
    (String.length !count >= 1 && !count.[String.length !count - 1] = '0');
  let digests = Array.map state_digest (Cluster.replicas cluster) in
  Array.iter (fun d -> Alcotest.(check string) "replica Merkle roots agree" digests.(0) d) digests

let test_sql_state_transfer_repairs_engine () =
  (* A replica misses a batch (lost body), recovers via state transfer,
     and its SQL engine — whose pager reads through the transferred
     region — serves the right data afterwards. *)
  let cluster =
    Cluster.create ~seed:4 ~num_clients:4 ~service:(Relsql.Pbft_service.service ())
      (Config.default ~f:1)
  in
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
      Simnet.Net.drop_next_matching (Cluster.net cluster) (fun ~src ~dst ~label ->
          src >= Types.client_addr_base && dst = 2 && label = "request"));
  Cluster.run cluster ~seconds:8.0;
  stop := true;
  Cluster.run cluster ~seconds:2.0;
  let r2 = Cluster.replica cluster 2 in
  let snap = Util.Metrics.snapshot (Simnet.Engine.metrics (Cluster.engine cluster)) in
  let counted name = Util.Metrics.get snap ~node:(Replica.id r2) ~layer:"pbft" name in
  Alcotest.(check bool) "transfer happened" true
    (counted "demotion_transfers" + counted "rejoin_transfers" >= 1);
  (* Ask the recovered replica (read-only executes locally at every
     replica, so matching replies require the victim to be consistent). *)
  let count = ref "" in
  Client.invoke (Cluster.client cluster 0) ~readonly:true "SELECT COUNT(*) FROM votes" (fun r ->
      count := r);
  Cluster.run cluster ~seconds:5.0;
  Alcotest.(check bool) "read-only quorum reached after recovery" true (!count <> "")

(* --- service boot: one fill per service value --- *)

(* A SQL boot (schema, fill, region size) and 50 statements to run after
   it. The statements repeat texts, so the statement cache decides part
   of their cost. *)
type boot = { schema : string; init : string list; app_pages : int; ops : string list }

let lookup_boot =
  {
    schema = Relsql.Pbft_service.lookup_schema;
    init = Relsql.Pbft_service.lookup_index_sql :: Harness.Experiments.lookup_fill_sql ~rows:640 ();
    app_pages = 128;
    ops =
      List.init 50 (fun i ->
          if i mod 5 = 4 then
            Printf.sprintf "INSERT INTO lookup (id, k, pad) VALUES (%d, %d, 'w')" (10_000 + i)
              (300 + i)
          else if i mod 7 = 3 then Relsql.Pbft_service.range_select_sql ~lo:(i mod 16) ~hi:40
          else Relsql.Pbft_service.point_select_sql ~key:(i * 7 mod 16));
  }

let vote_fill_boot =
  {
    schema = Relsql.Pbft_service.vote_schema;
    init =
      "CREATE TABLE IF NOT EXISTS fill (id INTEGER PRIMARY KEY, pad TEXT)"
      :: List.init 4 (fun b ->
             "INSERT INTO fill (id, pad) VALUES "
             ^ String.concat ", "
                 (List.init 40 (fun j ->
                      let id = (b * 40) + j + 1 in
                      Printf.sprintf "(%d, '%s')" id (String.make 1500 (Char.chr (97 + (id mod 26)))))));
    app_pages = 256;
    ops =
      List.init 50 (fun i ->
          if i mod 3 = 2 then "SELECT COUNT(*), SUM(id) FROM fill WHERE id > 100"
          else
            Relsql.Pbft_service.insert_vote_sql ~voter:(Printf.sprintf "v%d" (i mod 7))
              ~choice:"alice");
  }

let sql_boot b =
  Relsql.Pbft_service.service_with_db ~app_pages:b.app_pages ~schema:b.schema ~init:b.init ()

type booted = {
  pages : Statemgr.Pages.t;
  first_page : int;
  db : Relsql.Database.t;
  inst : Service.instance;
}

(* The service with every [make] recorded, in boot order. *)
let recording (svc, make_db) =
  let booted = ref [] in
  ( {
      svc with
      Service.make =
        (fun pages ~first_page ->
          let db, inst = make_db pages ~first_page in
          booted := !booted @ [ { pages; first_page; db; inst } ];
          inst);
    },
    booted )

(* Boot on a fresh region of its own the way a replica does: the Merkle
   tree is built before the boot and updated with the pages the boot
   dirtied. Also returns that genesis root. *)
let boot_standalone make_db ~num_pages ~first_page =
  let pages = Statemgr.Pages.create ~page_size:Relsql.Pager.page_size ~num_pages () in
  let merkle = Statemgr.Merkle.build pages in
  let db, inst = make_db pages ~first_page in
  Statemgr.Merkle.update merkle pages (Statemgr.Pages.dirty pages);
  Statemgr.Pages.clear_dirty pages;
  ({ pages; first_page; db; inst }, Statemgr.Merkle.root merkle)

let app_images b x = List.init b.app_pages (fun i -> Statemgr.Pages.page x.pages (x.first_page + i))

let app_root b x =
  Statemgr.Merkle.root_of_leaves (List.map Statemgr.Merkle.page_digest (app_images b x))

(* Reply and exact virtual cost of each statement. *)
let run_ops b x =
  List.mapi
    (fun i op ->
      let reply, cost =
        x.inst.execute ~op ~client:1 ~timestamp:(float_of_int i) ~nondet:"" ~readonly:false
      in
      Printf.sprintf "%s @ %h" reply cost)
    b.ops

let stats x = Relsql.Database.stmt_cache_stats x.db
let int_pair = Alcotest.(pair int int)

(* Every replica of a cluster, and a later [make] of the same service
   value, boot to exactly what a fresh service value's first [make]
   fills: app-page bytes, Merkle root after the genesis update,
   statement-cache statistics, and the reply and virtual cost of the
   next 50 statements. *)
let test_boot_equivalence b () =
  let _, make_db as sql = sql_boot b in
  let svc, booted = recording sql in
  let cluster = Cluster.create ~seed:1 ~num_clients:1 ~service:svc (Config.default ~f:1) in
  Alcotest.(check int) "one boot per replica" 4 (List.length !booted);
  let num_pages = Statemgr.Pages.num_pages (List.hd !booted).pages in
  let first_page = (List.hd !booted).first_page in
  let reference, ref_root = boot_standalone (snd (sql_boot b)) ~num_pages ~first_page in
  Alcotest.(check string) "reference genesis root = rebuilt root"
    (Statemgr.Merkle.root (Statemgr.Merkle.build reference.pages)) ref_root;
  let later, later_root = boot_standalone make_db ~num_pages ~first_page in
  Alcotest.(check string) "later make: genesis root" ref_root later_root;
  let ref_images = app_images b reference and ref_app_root = app_root b reference in
  let ref_stats = stats reference in
  Alcotest.(check bool) "the fill went through the statement cache" true (snd ref_stats > 0);
  let digests = Array.map state_digest (Cluster.replicas cluster) in
  Array.iter (fun d -> Alcotest.(check string) "replica roots agree" digests.(0) d) digests;
  let ref_ops = run_ops b reference in
  List.iteri
    (fun i x ->
      let who = if i < 4 then Printf.sprintf "replica %d" i else "later make" in
      Alcotest.(check bool) (who ^ ": app pages") true (app_images b x = ref_images);
      Alcotest.(check string) (who ^ ": app root") ref_app_root (app_root b x);
      Alcotest.check int_pair (who ^ ": statement cache") ref_stats (stats x);
      Alcotest.(check (list string)) (who ^ ": next 50 statements") ref_ops (run_ops b x);
      Alcotest.check int_pair (who ^ ": statement cache after") (stats reference) (stats x))
    (!booted @ [ later ])

(* Copy-on-write isolation: writes on replica 0 after boot reach neither
   the other replicas nor a later [make]. *)
let test_boot_cow_isolation () =
  let b = lookup_boot in
  let _, make_db as sql = sql_boot b in
  let svc, booted = recording sql in
  let _cluster = Cluster.create ~seed:2 ~num_clients:1 ~service:svc (Config.default ~f:1) in
  let genesis = app_images b (List.hd !booted) in
  let r0 = List.hd !booted in
  ignore (r0.inst.execute ~op:"DELETE FROM lookup WHERE k < 64" ~client:1 ~timestamp:1.0 ~nondet:""
            ~readonly:false);
  ignore (r0.inst.execute ~op:"INSERT INTO lookup (id, k, pad) VALUES (99999, 7, 'x')" ~client:1
            ~timestamp:2.0 ~nondet:"" ~readonly:false);
  Alcotest.(check bool) "replica 0 changed" false (app_images b r0 = genesis);
  List.iteri
    (fun i x ->
      if i > 0 then
        Alcotest.(check bool) (Printf.sprintf "replica %d still genesis" i) true
          (app_images b x = genesis))
    !booted;
  let later, _ = boot_standalone make_db ~num_pages:b.app_pages ~first_page:0 in
  Alcotest.(check bool) "later make still genesis" true (app_images b later = genesis);
  (* The same without a checkpoint in between: the region that ran the
     fill writes first, before anything else shares its pages. *)
  let _, fresh_make = sql_boot b in
  let filler, _ = boot_standalone fresh_make ~num_pages:b.app_pages ~first_page:0 in
  ignore (filler.inst.execute ~op:"DELETE FROM lookup WHERE k < 64" ~client:1 ~timestamp:1.0
            ~nondet:"" ~readonly:false);
  let after, _ = boot_standalone fresh_make ~num_pages:b.app_pages ~first_page:0 in
  Alcotest.(check bool) "filler's writes stay its own" true (app_images b after = genesis);
  let count x =
    fst (x.inst.execute ~op:"SELECT COUNT(*) FROM lookup" ~client:1 ~timestamp:3.0 ~nondet:""
           ~readonly:true)
  in
  Alcotest.(check bool) "later make sees all 640 rows" true
    (String.ends_with ~suffix:"640\n" (count later));
  (* 191 of the 640 rows have k < 64; one row was added. *)
  Alcotest.(check bool) "replica 0 sees its own writes" true
    (String.ends_with ~suffix:"450\n" (count r0))

(* A restarted SQL replica boots through a later [make] and rejoins with
   the same root as the replicas that stayed up. *)
let test_boot_restart () =
  let b = lookup_boot in
  let svc, booted = recording (sql_boot b) in
  let cluster = Cluster.create ~seed:3 ~num_clients:4 ~service:svc (Config.default ~f:1) in
  let stop = ref false in
  Array.iteri
    (fun i cl ->
      let n = ref 0 in
      let rec loop _ =
        if not !stop then begin
          incr n;
          Client.invoke cl
            (Printf.sprintf "INSERT INTO lookup (id, k, pad) VALUES (%d, %d, 'r')"
               (100_000 + (i * 10_000) + !n) (i + 300))
            loop
        end
      in
      loop "")
    (Cluster.clients cluster);
  Cluster.run cluster ~seconds:1.0;
  Cluster.restart_replica cluster 3;
  Alcotest.(check int) "restart booted through make" 5 (List.length !booted);
  Cluster.run cluster ~seconds:2.0;
  stop := true;
  Cluster.run cluster ~seconds:3.0;
  let r3 = Cluster.replica cluster 3 in
  Alcotest.(check bool) "rejoined" true (Replica.recovery_completed_at r3 <> None);
  let r0 = Cluster.replica cluster 0 in
  Alcotest.(check int) "caught up" (Replica.last_executed r0) (Replica.last_executed r3);
  Alcotest.(check string) "same root" (state_digest r0) (state_digest r3)

(* The single-node replay geometry: a region holding only the app pages,
   at [first_page:0], booted first or later. *)
let test_boot_replay_geometry () =
  let b = lookup_boot in
  let _, make_db = sql_boot b in
  let first, _ = boot_standalone make_db ~num_pages:(b.app_pages + 4) ~first_page:4 in
  let later, later_root = boot_standalone make_db ~num_pages:b.app_pages ~first_page:0 in
  let fresh, fresh_root = boot_standalone (snd (sql_boot b)) ~num_pages:b.app_pages ~first_page:0 in
  Alcotest.(check bool) "later replay region = first boot" true (app_images b later = app_images b first);
  Alcotest.(check bool) "fresh replay region = first boot" true (app_images b fresh = app_images b first);
  Alcotest.(check string) "same genesis root" fresh_root later_root;
  Alcotest.(check (list string)) "same replies and costs" (run_ops b fresh) (run_ops b later)

(* The fill runs once per service value, whatever the replica count: the
   page reads across [Cluster.create] are those of one fill, and the
   boot takes no snapshot and copies no page beyond the genesis
   checkpoints a cluster of null services takes too. Deterministic, so a
   regression back to one fill per replica fails here, not only on a
   wall clock. *)
let test_boot_fills_once () =
  let b = lookup_boot in
  let cfg = Config.default ~f:1 in
  let pages_read = Relsql.Database.pages_read_total in
  let snaps = Statemgr.Pages.snapshots_taken and copied = Statemgr.Pages.bytes_copied in
  let p0 = pages_read () in
  ignore (boot_standalone (snd (sql_boot b)) ~num_pages:b.app_pages ~first_page:0);
  let one_fill = pages_read () - p0 in
  Alcotest.(check bool) "a fill reads pages" true (one_fill > 0);
  let s0 = snaps () and c0 = copied () in
  ignore (Cluster.create ~seed:4 ~num_clients:1 ~service:(Service.null ()) cfg);
  let null_snaps = snaps () - s0 and null_copied = copied () - c0 in
  let p1 = pages_read () and s1 = snaps () and c1 = copied () in
  ignore (Cluster.create ~seed:4 ~num_clients:1 ~service:(fst (sql_boot b)) cfg);
  Alcotest.(check int) "pages read: one fill for four replicas" one_fill (pages_read () - p1);
  Alcotest.(check int) "no snapshot beyond genesis checkpoints" null_snaps (snaps () - s1);
  Alcotest.(check int) "no page copied" null_copied (copied () - c1)

(* --- e-voting --- *)

let voting_cluster () =
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true } in
  let cluster = Cluster.create ~seed:5 ~num_clients:4 ~service:(Evoting.service ()) cfg in
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
  let got = ref None in
  Client.invoke_certified (Cluster.client cluster 0) "incr" (fun r c -> got := Some (r, c));
  Cluster.run cluster ~seconds:5.0;
  match !got with
  | Some (_, None) -> ()
  | Some (_, Some _) -> Alcotest.fail "unexpected certificate"
  | None -> Alcotest.fail "request did not complete"

(* --- harness smoke --- *)

module Run = Harness.Run

(* A run's number: a layer's name merged over its nodes, or one node's. *)
let total r layer name = Util.Metrics.total r.Run.metrics ~layer name
let node r ~node layer name = Util.Metrics.get r.Run.metrics ~node ~layer name
let whole r layer name = Util.Metrics.(find r.Run.metrics ~node:run_node ~layer name)
let top_view d = List.fold_left (fun acc r -> Int.max acc (Replica.view r)) 0 (Run.live d)

let test_scenario_runs_and_measures () =
  let r =
    Run.run { (Run.closed (Config.default ~f:1)) with Run.duration = 0.3; warmup = 0.1 }
  in
  let mean = Util.Stats.mean r.Run.latency in
  Alcotest.(check bool) "throughput positive" true (r.Run.tps > 1000.0);
  Alcotest.(check bool) "latency sane" true (mean > 0.0 && mean < 0.1);
  Alcotest.(check int) "no view changes" 0 (total r "pbft" "view_changes")

let test_scenario_dynamic_mode () =
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true } in
  let r =
    Run.run
      {
        (Run.closed cfg) with
        Run.duration = 0.3;
        warmup = 0.1;
        load = Run.clients ~clients:4 (fun ~client:_ ~seq:_ -> String.make 1024 'q');
      }
  in
  Alcotest.(check bool) "dynamic workload runs" true (r.Run.tps > 100.0)

let count s = Float.Array.length (Util.Stats.samples s)

(* Closed-loop latency covers every client's requests in the measured
   window. With no warmup the window is the whole run, so the reference
   is simply every client's own samples pooled. *)
let test_latency_pools_every_client () =
  let r =
    Run.run { (Run.closed (Config.default ~f:1)) with Run.warmup = 0.0; duration = 0.3 }
  in
  let pooled = Util.Stats.create () in
  Array.iter
    (fun cl ->
      Float.Array.iter (Util.Stats.add pooled) (Util.Stats.samples (Client.latency_stats cl)))
    (Cluster.clients (Run.cluster r.Run.deployment 0));
  Alcotest.(check int) "one sample per completed request" (count pooled)
    (count r.Run.latency);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f" p)
        (Util.Stats.percentile pooled p)
        (Util.Stats.percentile r.Run.latency p))
    [ 50.0; 95.0; 99.0 ];
  Alcotest.(check (float 1e-12)) "mean" (Util.Stats.mean pooled) (Util.Stats.mean r.Run.latency)

(* And the window excludes the warmup: a second run with a warmup sees
   fewer samples than its clients recorded overall. *)
let test_latency_excludes_warmup () =
  let r =
    Run.run { (Run.closed (Config.default ~f:1)) with Run.warmup = 0.1; duration = 0.2 }
  in
  let all =
    Array.fold_left
      (fun acc cl -> acc + count (Client.latency_stats cl))
      0
      (Cluster.clients (Run.cluster r.Run.deployment 0))
  in
  Alcotest.(check int) "window samples = window completions" r.Run.completed
    (count r.Run.latency);
  Alcotest.(check bool) "warmup samples left out" true (count r.Run.latency < all)

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

let pinned_figure3_digest = "20642ce77f017f65deee45f528fdcfe54fc3527ee1168742be8ec02301d85e17"

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
    (sha_hex fig)

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

(* A run's hashed bytes depend on the run alone: three identical runs in
   one process hash the same. When HMAC midstates and the zero-page
   digest lived in process-wide tables, the first run read 103,097,048
   and the next two 103,084,755. *)
let test_hostbench_hashed_bytes_history_independent () =
  let spec = { (Harness.Run.closed (Pbft.Config.default ~f:1)) with Harness.Run.duration = 0.3 } in
  let hashed () =
    let m = Harness.Hostbench.measure ~name:"history" spec in
    Util.Metrics.total m.Harness.Hostbench.metrics ~layer:"crypto" "bytes_hashed"
  in
  let first = hashed () in
  let second = hashed () in
  let third = hashed () in
  Alcotest.(check (list int)) "same bytes hashed every run" [ first; first ] [ second; third ]

let test_hostbench_measure_and_json () =
  let m =
    Harness.Hostbench.measure ~name:"smoke"
      (Harness.Hostbench.workload ~seed:3 ~duration:0.2 "table1:sta_mac_allbig_batch")
  in
  let e2e name =
    Util.Metrics.(to_float (find m.Harness.Hostbench.metrics ~node:run_node ~layer:"end_to_end" name))
  in
  Alcotest.(check bool) "events counted" true (e2e "events" > 0.0);
  Alcotest.(check bool) "virtual tps positive" true (e2e "virtual_tps" > 0.0);
  Alcotest.(check bool) "bytes hashed" true
    (Util.Metrics.total m.Harness.Hostbench.metrics ~layer:"crypto" "bytes_hashed" > 0);
  let json = Webgate.Json.parse (Harness.Hostbench.to_json ~now:"test" [ m ]) in
  Alcotest.(check string) "schema tag" "pbft-repro/bench/v8"
    (Webgate.Json.to_string_exn (Webgate.Json.member "schema" json));
  let numbers obj names =
    List.iter
      (fun field ->
        match Webgate.Json.member_opt field obj with
        | Some (Webgate.Json.Num _) -> ()
        | _ -> Alcotest.fail (field ^ " should be a number"))
      names
  in
  let keys = function Webgate.Json.Obj kvs -> List.map fst kvs | _ -> [] in
  match Webgate.Json.member "workloads" json with
  | Webgate.Json.Arr [ w ] ->
    Alcotest.(check string) "workload name" "smoke"
      (Webgate.Json.to_string_exn (Webgate.Json.member "name" w));
    numbers (Webgate.Json.member "end_to_end" w)
      [
        "completed"; "window"; "virtual_tps"; "p50_latency"; "p95_latency"; "p99_latency";
        "events"; "events_per_request"; "alloc_words_per_request"; "tentative_completed";
      ];
    let layers = Webgate.Json.member "layers" w in
    (* A closed-loop, single-group, crash-free null-service row: the
       door, shard, load, churn and relational sections do not apply. *)
    Alcotest.(check (list string)) "sections" [ "crypto"; "pbft"; "simnet"; "statemgr" ]
      (keys layers);
    numbers (Webgate.Json.member "crypto" layers) [ "bytes_hashed" ];
    numbers (Webgate.Json.member "pbft" layers)
      [ "view_changes"; "speculative_executions"; "rollbacks"; "ro_cache_evictions" ];
    numbers (Webgate.Json.member "simnet" layers) [ "cpu_queue_peak"; "core_utilization" ];
    numbers (Webgate.Json.member "statemgr" layers)
      [ "checkpoint_count"; "undo_snapshots"; "bytes_copied"; "allocated_page_bytes" ];
    Alcotest.(check bool) "checkpoints counted" true
      (Util.Metrics.total m.Harness.Hostbench.metrics ~layer:"statemgr" "checkpoint_count" > 0);
    (* The churn row has the churn section the table-1 row lacks. *)
    let churn =
      Harness.Hostbench.measure ~name:"churn"
        (Harness.Experiments.churn_spec ~horizon:3.0 ~period:1.0 ~downtime:0.4 ())
    in
    (match Webgate.Json.parse (Harness.Hostbench.to_json [ churn ]) with
    | doc -> (
      match Webgate.Json.member "workloads" doc with
      | Webgate.Json.Arr [ w ] ->
        numbers
          (Webgate.Json.member "churn" (Webgate.Json.member "layers" w))
          [ "crashes"; "restarts"; "availability"; "mean_recovery"; "max_recovery"; "unrecovered" ]
      | _ -> Alcotest.fail "one churn row"))
  | _ -> Alcotest.fail "workloads should hold the one measurement"

(* --- equivalence pin ---

   One short seeded run of each deployment shape the harness drives, its
   virtual numbers rendered in a fixed format and hashed. A refactor of
   the harness must leave the hash unchanged. Closed-loop latency is left
   out on purpose; everything else printed here is computed, not a
   constant. *)

let render_fields name fields =
  name ^ ":" ^ String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ v) fields) ^ "\n"

let i = string_of_int
let f = Printf.sprintf "%h"
let fa a = String.concat ";" (Array.to_list (Array.map f a))
let ia a = String.concat ";" (Array.to_list (Array.map i a))

let pin_closed () =
  let r = Run.run { (Run.closed (Config.default ~f:1)) with Run.warmup = 0.1; duration = 0.3 } in
  let pbft = total r "pbft" and statemgr = total r "statemgr" in
  render_fields "closed"
    [ ("completed", i r.Run.completed); ("tps", f r.tps);
      ("vc", i (pbft "view_changes")); ("dem_tr", i (pbft "demotion_transfers"));
      ("rejoin_tr", i (pbft "rejoin_transfers")); ("pages", i (statemgr "transfer_pages_fetched"));
      ("pages_full", i (statemgr "transfer_pages_full")); ("spec", i (pbft "speculative_executions"));
      ("rollbacks", i (pbft "rollbacks")); ("tentative", i r.tentative);
      ("retrans", i r.retransmissions); ("queue_peak", i (total r "simnet" "cpu_queue_peak")) ]

let pin_openloop () =
  let r =
    Run.run
      {
        (Run.closed (Config.default ~f:1)) with
        Run.door =
          Some
            {
              Webgate.Frontdoor.connections = 4;
              flush_bytes = 1024;
              flush_deadline = 0.003;
              max_queue = 64;
              max_sessions = 128;
            };
        load =
          Run.Arrivals
            {
              sessions = 200;
              arrival = Run.Bursty { base = 150.0; burst = 4000.0; period = 0.1; duty = 0.3 };
              op_bytes = 128;
              conns = 8;
              retransmit = Some 0.05;
            };
        warmup = 0.05;
        duration = 0.3;
      }
  in
  let door = Option.get (Run.door r.Run.deployment) in
  let load name = node r ~node:Util.Metrics.run_node "load" name in
  let lat = r.Run.latency in
  render_fields "openloop"
    [ ("completed", i r.Run.completed); ("tps", f r.tps);
      ("p50", f (Util.Stats.p50 lat)); ("p95", f (Util.Stats.p95 lat));
      ("p99", f (Util.Stats.p99 lat)); ("mean", f (Util.Stats.mean lat));
      ("shed", i (Webgate.Frontdoor.shed door));
      ("evictions", i (total r "webgate" "session_evictions"));
      ("gw_peak", i (Webgate.Frontdoor.queue_peak door));
      ("vc", i (total r "pbft" "view_changes"));
      ("arrivals", i (load "arrivals")); ("gen_shed", i (load "gen_shed"));
      ("gen_retrans", i (load "gen_retransmissions"));
      ("cache_hits", i (total r "webgate" "reply_cache_hits"));
      ("flush_size", i (Webgate.Frontdoor.flushes_size door));
      ("flush_deadline", i (Webgate.Frontdoor.flushes_deadline door));
      ("live", i (Webgate.Frontdoor.live_sessions door)) ]

let pin_shards () =
  let r =
    Run.run
      {
        (Harness.Shards.spec ~shards:2 ~sessions:16 ~rows:64 ~cross:0.1 ()) with
        Run.warmup = 0.2;
        duration = 0.5;
      }
  in
  (* A session load's door counters cover the measured window. *)
  let lanes name = Array.init 2 (fun s -> node r ~node:s "shards" name) in
  let cross name = node r ~node:Webgate.Frontdoor.frontdoor_addr "shards" name in
  let lat = r.Run.latency in
  render_fields "shards"
    [ ("completed", i r.Run.completed); ("tps", f r.tps);
      ( "shard_tps",
        fa (Array.map (fun c -> float_of_int c /. r.Run.window) (lanes "completed")) );
      ("peaks", ia (lanes "queue_peak"));
      ("commits", i (cross "cross_commits"));
      ("aborts", i (cross "cross_aborts"));
      ("timeouts", i (cross "cross_timeouts"));
      ("flush_size", i (total r "webgate" "flushes_size"));
      ("flush_deadline", i (total r "webgate" "flushes_deadline"));
      ("p50", f (Util.Stats.p50 lat)); ("p95", f (Util.Stats.p95 lat));
      ("p99", f (Util.Stats.p99 lat));
      ("shed", i (total r "webgate" "shed"));
      ("cache_hits", i (total r "webgate" "reply_cache_hits"));
      ("errors", i (node r ~node:Util.Metrics.run_node "load" "errors")) ]

let pin_adversary () =
  let cfg = { (Config.default ~f:1) with Config.view_change_timeout = 0.25 } in
  let r =
    Run.run
      {
        (Run.closed cfg) with
        Run.warmup = 0.1;
        duration = 0.8;
        plan = [ (0.2, Run.Adversary (0, Adversary.Mute)) ];
      }
  in
  let pbft = total r "pbft" in
  render_fields "adversary"
    [ ("completed", i r.Run.completed); ("tps", f r.tps);
      ("vc", i (pbft "view_changes")); ("view", i (top_view r.deployment));
      ("mutations", i r.mutations);
      ("dem_tr", i (pbft "demotion_transfers")); ("spec", i (pbft "speculative_executions"));
      ("rollbacks", i (pbft "rollbacks")); ("retrans", i r.retransmissions) ]

let pin_churn () =
  let r = Run.run (Harness.Experiments.churn_spec ~horizon:6.0 ~period:2.0 ~downtime:0.5 ()) in
  let churn name = Util.Metrics.to_float (whole r "churn" name) in
  let pbft = total r "pbft" and statemgr = total r "statemgr" in
  render_fields "churn"
    [ ("completed", i r.Run.completed); ("tps", f r.tps);
      ("crashes", i (total r "churn" "crashes")); ("restarts", i (total r "churn" "restarts"));
      ("avail", f (churn "availability")); ("mean_rec", f (churn "mean_recovery"));
      ("max_rec", f (churn "max_recovery")); ("unrecovered", i (total r "churn" "unrecovered"));
      ("dem_tr", i (pbft "demotion_transfers")); ("rejoin_tr", i (pbft "rejoin_transfers"));
      ("pages", i (statemgr "transfer_pages_fetched"));
      ("pages_full", i (statemgr "transfer_pages_full"));
      ("vc", i (pbft "view_changes"));
      ("view", i (top_view r.deployment));
      ("failures", String.concat "|" (Lazy.force r.failures)) ]

(* --- churn: the crash/repair rotation as a fault plan --- *)

let test_churn_rotation () =
  let spec = Harness.Experiments.churn_spec ~horizon:5.0 ~period:1.5 ~downtime:0.5 () in
  let r = Run.run spec in
  let crashes = total r "churn" "crashes" and restarts = total r "churn" "restarts" in
  let full = total r "statemgr" "transfer_pages_full" in
  Alcotest.(check int) "one crash per plan entry" (List.length spec.Run.plan) crashes;
  Alcotest.(check bool) "crashes happened" true (crashes > 0);
  Alcotest.(check int) "every crash restarted" crashes restarts;
  Alcotest.(check int) "every incident rejoined" 0 (total r "churn" "unrecovered");
  Alcotest.(check bool) "rejoins used the transfer" true
    (total r "pbft" "rejoin_transfers" >= restarts);
  Alcotest.(check bool) "Merkle diff fetched fewer pages than a full transfer" true
    (full > 0 && total r "statemgr" "transfer_pages_fetched" < full);
  Alcotest.(check (list string)) "journals and states agree" [] (Lazy.force r.failures);
  Alcotest.(check (float 0.0)) "no outage with one replica down" 1.0
    (Util.Metrics.to_float (whole r "churn" "availability"))

(* f+1 replicas down at once leave no quorum: the sampler must see the
   outage. *)
let test_churn_outage_detected () =
  let r =
    Run.run
      {
        (Run.closed (Config.default ~f:1)) with
        Run.load = Run.clients ~clients:4 (fun ~client:_ ~seq:_ -> String.make 64 'q');
        warmup = 0.2;
        duration = 1.2;
        bucket = 0.1;
        plan =
          [ (0.5, Run.Crash (Run.Replica 1, 0.4)); (0.5, Run.Crash (Run.Replica 2, 0.4)) ];
      }
  in
  let availability = Util.Metrics.to_float (whole r "churn" "availability") in
  Alcotest.(check int) "both crashed" 2 (total r "churn" "crashes");
  Alcotest.(check bool) "availability below 1" true (availability < 1.0);
  Alcotest.(check bool) "progress outside the outage" true (availability > 0.0)

let pinned_equivalence = "16856051f9a4b1c22ed3a2b1aaa6e2bc0ba903da298be26a54f1df222e842c41"

let test_equivalence_pinned () =
  let rendering =
    String.concat ""
      (List.map
         (fun part -> part ())
         [ pin_closed; pin_openloop; pin_shards; pin_adversary; pin_churn ])
  in
  print_string rendering;
  Alcotest.(check string) "virtual numbers of every shape" pinned_equivalence
    (sha_hex rendering)

(* The replica's pin: pipelined speculation, its rollback, the system-op
   intake (dynamic joins), a mute primary's view change and a backup's
   rejoin in one seeded traced run. A refactor of [Replica] must leave
   the digest unchanged; the counters prove the run reached those
   paths. *)
let pinned_replica_digest = "cea2f45e6f3f229a2ac925cd0e8cffe4071433a96c0816b2a056225a917ecd62"

(* The Table-1 default row's trace digest, the one BENCH.json records. *)
let pinned_trace_digest = "a43ce5a58ca19f5682a43fd68987879de38ee2f78ffb2e4293a60546bceae082"

let test_trace_digest_pinned () =
  Alcotest.(check string) "Table-1 trace digest" pinned_trace_digest
    (Harness.Hostbench.trace_digest ())

let test_replica_digest_pinned () =
  let spec = Harness.Hostbench.replica_digest_spec () in
  let digest, r = Harness.Hostbench.traced spec in
  let pbft = total r "pbft" in
  Alcotest.(check bool) "speculative executions" true (pbft "speculative_executions" > 0);
  Alcotest.(check bool) "rollbacks" true (pbft "rollbacks" > 0);
  Alcotest.(check bool) "a view change installed" true
    (pbft "view_changes" > 0 && top_view r.deployment > 0);
  Alcotest.(check bool) "a rejoin transfer" true (pbft "rejoin_transfers" > 0);
  Alcotest.(check bool) "the mute primary fired" true (r.mutations > 0);
  Array.iter
    (fun rep ->
      Alcotest.(check int) "every client joined" 4 (Membership.count (Replica.membership rep)))
    (Cluster.replicas (Run.cluster r.deployment 0));
  Alcotest.(check (list string)) "journals and states agree" [] (Lazy.force r.failures);
  Alcotest.(check string) "replica trace digest" pinned_replica_digest digest

let () =
  Alcotest.run "integration"
    [
      ( "replicated-sql",
        [
          Alcotest.test_case "insert & count" `Quick test_sql_service_basic;
          Alcotest.test_case "nondeterminism converges (§2.5)" `Slow
            test_sql_replicas_converge_with_nondeterminism;
          Alcotest.test_case "error replies consistent" `Quick test_sql_error_replies_consistent;
          Alcotest.test_case "read-only write refused" `Quick test_sql_readonly_write_refused;
          Alcotest.test_case "state transfer repairs engine" `Slow
            test_sql_state_transfer_repairs_engine;
        ] );
      ( "service-boot",
        [
          Alcotest.test_case "lookup boot: replicas = first fill" `Quick
            (test_boot_equivalence lookup_boot);
          Alcotest.test_case "vote + fill boot: replicas = first fill" `Quick
            (test_boot_equivalence vote_fill_boot);
          Alcotest.test_case "copy-on-write isolation" `Quick test_boot_cow_isolation;
          Alcotest.test_case "restart rejoins with the same root" `Slow test_boot_restart;
          Alcotest.test_case "replay geometry (first_page 0)" `Quick test_boot_replay_geometry;
          Alcotest.test_case "fills once per service value" `Quick test_boot_fills_once;
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
          Alcotest.test_case "latency pools every client" `Slow test_latency_pools_every_client;
          Alcotest.test_case "latency excludes warmup" `Slow test_latency_excludes_warmup;
        ] );
      ( "churn",
        [
          Alcotest.test_case "rotation plan rejoins cleanly" `Slow test_churn_rotation;
          Alcotest.test_case "f+1 down is an outage" `Slow test_churn_outage_detected;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "every shape's virtual numbers" `Slow test_equivalence_pinned;
          Alcotest.test_case "replica paths' trace digest" `Slow test_replica_digest_pinned;
          Alcotest.test_case "Table-1 trace digest" `Slow test_trace_digest_pinned;
        ] );
      ( "hostbench",
        [
          Alcotest.test_case "trace digest deterministic" `Slow test_trace_digest_deterministic;
          Alcotest.test_case "measure & BENCH.json shape" `Slow test_hostbench_measure_and_json;
          Alcotest.test_case "hashed bytes independent of process history" `Slow
            test_hostbench_hashed_bytes_history_independent;
        ] );
    ]
