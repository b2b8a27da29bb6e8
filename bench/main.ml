(* The experiment front end: one regenerator per table and figure of
   the paper (see DESIGN.md's experiment index), the CI gates, the
   BENCH.json writer, and a Bechamel micro-benchmark suite for the
   primitive costs that motivate the virtual cost model.

   Usage:  dune exec bench/main.exe [-- section ... [--seed N] [--duration S] [--quick]]
           dune exec bench/main.exe -- vdiff OLD.json NEW.json
   No section runs them all; an unknown section or a malformed option
   prints the usage to stderr and exits 2. [--seed] (default 1) seeds
   every section. [--duration] sets the measured virtual seconds of the
   paper's sections only; without it each keeps its regenerator's own
   length. The BENCH.json rows and the gates always run at their
   calibrated lengths. [--quick] shortens every run to 0.3 s (shards to
   0.8 s; memory and churn have their own short shapes) for CI smoke
   runs.
   [vdiff] compares two BENCH files' virtual numbers, workload by
   workload, and exits 1 on any difference. Each gated section's
   comment below says what it checks; a failed gate exits 1. *)

open Bechamel
open Toolkit

(* --- the command line --- *)

let seed = ref 1
let duration : float option ref = ref None
let quick = ref false

(* A paper section's length: --duration, else 0.3 s under --quick;
   [None] leaves the regenerator its own length. *)
let override () =
  match !duration with
  | Some _ as d -> d
  | None -> if !quick then Some 0.3 else None

(* A gated or BENCH.json run's length: its calibrated [default], or
   [quick_length] under --quick. --duration does not reach it. *)
let length ?(quick_length = 0.3) default = if !quick then quick_length else default

let banner name = Printf.printf "\n######## %s ########\n%!" name

(* [need cond msg]: a gate condition's failure list. *)
let need cond msg = if cond then [] else [ msg ]

(* Every gated section ends here: PASS, or each failure on stderr and
   exit 1. *)
let verdict section failures =
  match failures with
  | [] -> Printf.printf "  %s gates: PASS\n%!" section
  | fs ->
    List.iter (Printf.eprintf "FAIL: %s\n") fs;
    exit 1

(* --- micro benchmarks (P1) --- *)

let kb = String.make 1024 'x'

let micro_tests () =
  let rng = Util.Rng.create !seed in
  let rabin = Crypto.Rabin.generate rng ~bits:384 in
  let rabin_pk = Crypto.Rabin.public rabin in
  let rabin_sig = Crypto.Rabin.sign rabin kb in
  let mac_key = Crypto.Mac.fresh_key rng in
  let hmac_key = Crypto.Hmac.key (Crypto.Mac.key_bytes mac_key) in
  let auth_keys = List.init 4 (fun i -> (i, Crypto.Mac.fresh_key rng)) in
  let pages = Statemgr.Pages.create ~page_size:4096 ~num_pages:64 () in
  let merkle = Statemgr.Merkle.build pages in
  let sql = Relsql.Database.open_db (Relsql.Vfs.in_memory ~acid:true ~seed:!seed ()) in
  ignore (Relsql.Database.exec_exn sql Relsql.Pbft_service.vote_schema);
  let counter = ref 0 in
  let sample_msg =
    {
      Pbft.Message.payload =
        Pbft.Message.Pre_prepare
          {
            pp_view = 0;
            pp_seq = 42;
            pp_batch =
              List.init 12 (fun i ->
                  Pbft.Message.Digest_of
                    {
                      bd_client = i;
                      bd_id = i;
                      bd_digest = Crypto.Sha256.digest (string_of_int i);
                      bd_readonly = false;
                    });
            pp_nondet = "nd";
          };
      auth = Pbft.Message.Authenticated (Crypto.Authenticator.compute ~keys:auth_keys "pb");
    }
  in
  let wire = Pbft.Message.encode sample_msg in
  [
    Test.make ~name:"sha256 1KiB" (Staged.stage (fun () -> Crypto.Sha256.digest kb));
    Test.make ~name:"hmac 1KiB" (Staged.stage (fun () -> Crypto.Hmac.mac ~key:hmac_key kb));
    Test.make ~name:"mac tag 1KiB" (Staged.stage (fun () -> Crypto.Mac.compute ~key:mac_key kb));
    Test.make ~name:"authenticator n=4"
      (Staged.stage (fun () -> Crypto.Authenticator.compute ~keys:auth_keys kb));
    Test.make ~name:"rabin-384 sign" (Staged.stage (fun () -> Crypto.Rabin.sign rabin kb));
    Test.make ~name:"rabin-384 verify"
      (Staged.stage (fun () -> Crypto.Rabin.verify rabin_pk kb rabin_sig));
    Test.make ~name:"merkle update 1 page"
      (Staged.stage (fun () ->
           incr counter;
           let s = string_of_int !counter in
           Statemgr.Pages.notify_modify pages ~pos:0 ~len:(String.length s);
           Statemgr.Pages.write pages ~pos:0 s;
           Statemgr.Merkle.update merkle pages [ 0 ]));
    Test.make ~name:"sql insert (in-memory)"
      (Staged.stage (fun () ->
           incr counter;
           Relsql.Database.exec sql
             (Printf.sprintf
                "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('b%d','c',NOW(),RANDOM())"
                !counter)));
    Test.make ~name:"message encode (pre-prepare, batch 12)"
      (Staged.stage (fun () -> Pbft.Message.encode sample_msg));
    Test.make ~name:"message decode" (Staged.stage (fun () -> Pbft.Message.decode wire));
  ]

let run_micro () =
  print_endline "== P1 — primitive costs (Bechamel, host CPU time per op) ==";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name result ->
          let v = Analyze.one ols Instance.monotonic_clock result in
          match Analyze.OLS.estimates v with
          | Some [ est ] -> Printf.printf "  %-42s %12.0f ns/op\n%!" name est
          | Some _ | None -> Printf.printf "  %-42s (no estimate)\n%!" name)
        raw)
    (micro_tests ())

(* --- host-time benchmark: every Hostbench workload once, written to
   BENCH.json (schema in README.md) --- *)

let measure_named ~duration name =
  Harness.Hostbench.measure ~name (Harness.Hostbench.workload ~seed:!seed ~duration name)

(* A row's end-to-end numbers; its layers are read with
   [Util.Metrics.total]. *)
let e2e (m : Harness.Hostbench.row) name =
  Util.Metrics.(to_float (find m.metrics ~node:run_node ~layer:"end_to_end" name))

let write_json path json =
  let oc = open_out path in
  output_string oc json;
  output_char oc '\n';
  close_out oc

let iso8601 () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let run_hostbench () =
  banner "Host-time benchmark (BENCH.json)";
  let print_m (m : Harness.Hostbench.row) =
    Printf.printf "  %-32s %9.0f events  %10d B hashed  vTPS %9.1f\n%!" m.name (e2e m "events")
      (Util.Metrics.total m.metrics ~layer:"crypto" "bytes_hashed") (e2e m "virtual_tps");
    let snapshots = Util.Metrics.total m.metrics ~layer:"statemgr" "checkpoint_count" + Util.Metrics.total m.metrics ~layer:"statemgr" "undo_snapshots" in
    if snapshots > 0 then begin
      let copied = float_of_int (Util.Metrics.total m.metrics ~layer:"statemgr" "bytes_copied") /. float_of_int snapshots in
      let deep = Util.Metrics.(to_float (find m.metrics ~node:run_node ~layer:"statemgr" "allocated_page_bytes")) in
      Printf.printf "  %-32s copied/snapshot %10.0f B  deep-copy %10.0f B  (%.1fx)\n%!" "" copied
        deep
        (if copied > 0.0 then deep /. copied else 0.0)
    end
  in
  let all =
    List.map
      (fun (name, spec) ->
        let m = Harness.Hostbench.measure ~name spec in
        print_m m;
        m)
      (Harness.Hostbench.workloads ~seed:!seed ~duration:(length 1.5) ())
  in
  write_json "BENCH.json" (Harness.Hostbench.to_json ~now:(iso8601 ()) all);
  Printf.printf "  trace digest: %s\n  wrote BENCH.json (%d workloads)\n%!"
    (Harness.Hostbench.trace_digest ~seed:!seed ())
    (List.length all)

(* Just the seeded trace digests: cheap enough for CI to run twice and
   diff, pinning simulation determinism without a full bench pass. *)
let run_digest () =
  Printf.printf "trace digest: %s\n%!" (Harness.Hostbench.trace_digest ~seed:!seed ());
  Printf.printf "gateway trace digest: %s\n%!"
    (Harness.Hostbench.gateway_trace_digest ~seed:!seed ());
  Printf.printf "replica trace digest: %s\n%!"
    (Harness.Hostbench.replica_trace_digest ~seed:!seed ())

(* Deterministic-proxy regression gate on the relsql read path: heap words
   allocated per completed sql:indexed_point request, boot fill included
   (as in BENCH.json's alloc_per_request), so a shorter run reads higher.
   Set from the value under --quick, the CI run, plus 25% headroom:
   109,682 once covered SELECTs read only the index and rows are
   evaluated in one pass over resolved columns (budget 218,000 before,
   set from 174,621 once the boot fill's INSERTs edit B-tree pages in
   place; 670,000 before that, set from 536,084 with the batched
   row-tree lookup and the in-place leaf walk; 733,000 before that, set
   from 586,117 with the boot fill run once per service value). The
   in-place B-tree probe measured 1,930,701 while every replica still
   ran the fill, and the copy-and-decode read path it replaced
   6,430,090. *)
let sqlidx_words_budget = 137_103.0

(* The same gate on sql:read_mix, whose SELECTs match 25 rows each
   through the index, now answered from the index keys. Set from its
   --quick value, 105,126 with covered scans and one-pass evaluation,
   plus 25% headroom (209,000 before, set from 167,440 with in-place
   B-tree writes in the boot fill; 528,799 with the batched lookup and
   decode-and-encode writes; 572,348 with one descent per row and whole
   leaves decoded). *)
let read_mix_words_budget = 131_408.0

(* The same gate on the write path, sql:insert_acid: one vote INSERT per
   request under the rollback journal, boot fill included. Set from its
   --quick value, 49,489 once page touches are counted without a hash
   table and varints decode without a closure, plus 25% headroom
   (67,000 before, set from 53,533 with B-tree pages edited in place,
   each original journaled once from the page view and Simdisk files
   that grow geometrically); the decode-and-encode write path measured
   132,542. A rise means the write path copies or re-encodes whole
   pages again. *)
let insert_words_budget = 61_862.0

(* Per-statement gates on one replica's copy of the read-mix table: the
   6,400-row lookup table booted by the SQL service into a Pages region.
   The covered point SELECT ("SELECT COUNT(*), SUM(id) ... WHERE k = ?") answers from
   the lookup_k index alone, so it reads at most [covered_pages_budget]
   pages; fetching each of its 25 rows from the row tree read 29. A
   SELECT that must fetch its rows (it reads pad) allocates at most
   [fetch_words_budget] minor words per fetched row: the words of the
   25-row probe less those of a probe that finds no row, over 25. The
   per-row name lookup, environment record and whole-row decode
   measured 218. *)
let covered_pages_budget = 4
let fetch_words_budget = 50.0

let statement_gates () =
  let app_pages = 512 in
  let _, make =
    Relsql.Pbft_service.service_with_db ~app_pages ~schema:Relsql.Pbft_service.lookup_schema
      ~init:(Relsql.Pbft_service.lookup_index_sql :: Harness.Experiments.lookup_fill_sql ())
      ()
  in
  let pages =
    Statemgr.Pages.create ~page_size:Relsql.Pager.page_size ~num_pages:app_pages ()
  in
  let db, _ = make pages ~first_page:0 in
  let run sql =
    let o = Relsql.Database.exec db sql in
    (match o.Relsql.Database.res with Ok _ -> () | Error e -> failwith ("sqlidx: " ^ e));
    o
  in
  let covered = run (Relsql.Pbft_service.point_select_sql ~key:5) in
  let fetch key = Printf.sprintf "SELECT COUNT(*), MAX(pad) FROM lookup WHERE k = %d" key in
  let words sql =
    ignore (run sql);
    let before = Gc.minor_words () in
    let o = run sql in
    (Gc.minor_words () -. before, o.Relsql.Database.rows_scanned)
  in
  let hit, rows = words (fetch 5) and miss, _ = words (fetch 300) in
  let per_row = (hit -. miss) /. float_of_int (Int.max 1 rows) in
  Printf.printf "  covered point SELECT: %d pages, %d rows (budget %d pages)\n%!"
    covered.Relsql.Database.pages_read covered.rows_scanned covered_pages_budget;
  Printf.printf "  fetching SELECT: %.1f words per fetched row over %d rows (budget %.0f)\n%!"
    per_row rows fetch_words_budget;
  need
    (covered.pages_read <= covered_pages_budget)
    (Printf.sprintf "covered point SELECT read %d pages (budget %d)" covered.pages_read
       covered_pages_budget)
  @ need (rows = 25) (Printf.sprintf "fetching SELECT scanned %d rows, not 25" rows)
  @ need (per_row <= fetch_words_budget)
      (Printf.sprintf "fetching SELECT allocates %.1f words per row (budget %.0f)" per_row
         fetch_words_budget)

(* Access-path comparison with a pass/fail gate: the identical point-
   SELECT stream, indexed versus forced scan, must differ by at least 5x
   in virtual TPS and by an order of magnitude in pages per operation. *)
let run_sqlidx () =
  banner "SQL access paths — indexed vs forced scan";
  let dur = length 1.5 in
  let per_op m name =
    let completed = e2e m "completed" in
    if completed > 0.0 then float_of_int (Util.Metrics.total m.metrics ~layer:"relsql" name) /. completed else 0.0
  in
  let show (m : Harness.Hostbench.row) =
    Printf.printf "  %-32s vTPS %9.1f  pages/op %8.1f  rows/op %8.1f\n%!" m.name
      (e2e m "virtual_tps") (per_op m "pages_read") (per_op m "rows_scanned")
  in
  let point = measure_named ~duration:dur "sql:indexed_point" in
  let range = measure_named ~duration:dur "sql:indexed_range" in
  let forced = measure_named ~duration:dur "sql:forced_scan" in
  show point;
  show range;
  show forced;
  let speedup =
    if e2e forced "virtual_tps" > 0.0 then e2e point "virtual_tps" /. e2e forced "virtual_tps"
    else 0.0
  in
  Printf.printf "  indexed point vs forced scan: %.1fx virtual TPS\n%!" speedup;
  let mix = measure_named ~duration:dur "sql:read_mix" in
  let insert = measure_named ~duration:dur "sql:insert_acid" in
  let words m = e2e m "alloc_words_per_request" in
  let budgets =
    [ (point, sqlidx_words_budget); (mix, read_mix_words_budget); (insert, insert_words_budget) ]
  in
  List.iter
    (fun ((m : Harness.Hostbench.row), budget) ->
      Printf.printf "  %s allocation: %.0f words/request (budget %.0f)\n%!" m.name (words m) budget)
    budgets;
  let statements = statement_gates () in
  verdict "sqlidx"
    (statements
    @ need (speedup >= 5.0)
       (Printf.sprintf "indexed point workload is %.1fx the forced-scan baseline (need >= 5x)"
          speedup)
    @ List.concat_map
        (fun ((m : Harness.Hostbench.row), budget) ->
          need (words m <= budget)
            (Printf.sprintf "%s allocates %.0f words/request (budget %.0f)" m.name (words m) budget))
        budgets)

(* Bounded-memory gate on the Table-1 default row, run at two lengths.
   The deterministic proxy is the number of heap words reachable from
   the cluster at the end of each run: its growth per extra completed
   request is what a table that never forgets a request costs. Set from
   this gate's --quick value with a live-only event queue (3.34
   words/op, 1 s vs 3 s, seed 1) plus 25% headroom; 7.94 before, set
   from 6.35 while cancelled timers stayed queued; keeping every request
   body, as before stable-checkpoint retirement, measures 171.8. *)
let memory_words_budget = 4.17

(* The words reachable after the short run, under --quick (1 s) and
   without it (2 s): set from their readings, 108,000 and 138,142, plus
   25% headroom, since the heap's vacated slots hold the engine's empty
   timer. While those slots kept the last timers moved out of them the
   readings were 111,466 and 145,852; a queue that kept cancelled
   timers until their deadlines read 1,406,774 after 1 s: each dead
   closure keeps its finished operation reachable. *)
let memory_live_budget = (135_000, 172_678)

(* Events queued at the end of the long run: 62 under --quick (56
   without) plus 25% headroom. *)
let memory_pending_budget = 78

let run_memory () =
  banner "Bounded replica memory — Table-1 default at two lengths";
  let short, long = if !quick then (1.0, 3.0) else (2.0, 6.0) in
  let spec = { (Harness.Run.closed (Pbft.Config.default ~f:1)) with Harness.Run.seed = !seed } in
  let run seconds =
    let r = Harness.Run.run { spec with Harness.Run.duration = seconds } in
    let cluster = Harness.Run.cluster r.Harness.Run.deployment 0 in
    (* Engine timers close over every replica and client, so the words
       reachable from the cluster are its whole live heap — an exact
       count, where a GC statistic also sees unswept garbage. *)
    let live = Obj.reachable_words (Obj.repr cluster) in
    let replicas = Array.to_list (Pbft.Cluster.replicas cluster) in
    let counts r = List.map snd (Pbft.Replica.retained_fields (Pbft.Replica.retained r)) in
    let largest =
      List.fold_left (fun acc r -> List.map2 Int.max acc (counts r)) (counts (List.hd replicas))
        replicas
    in
    let sum name = Util.Metrics.total r.Harness.Run.metrics ~layer:"pbft" name in
    let unanswered = sum "aged_out_unanswered" in
    let aged = sum "bodies_aged_out" in
    let queued = Simnet.Engine.pending (Pbft.Cluster.engine cluster) in
    (r.Harness.Run.completed, live, largest, unanswered, aged, queued)
  in
  let live_budget = (if !quick then fst else snd) memory_live_budget in
  let ops_s, live_s, largest_s, unanswered_s, aged_s, _ = run short in
  let ops_l, live_l, largest_l, unanswered_l, aged_l, queued_l = run long in
  let bound = Pbft.Replica.retained_fields (Harness.Run.retained_bound spec) in
  Printf.printf "  %-22s %10s %10s %10s\n" "largest per replica" (Printf.sprintf "%.0f s" short)
    (Printf.sprintf "%.0f s" long) "bound";
  let tables =
    List.concat
      (List.mapi
         (fun i (name, bound) ->
           let a = List.nth largest_s i and b = List.nth largest_l i in
           Printf.printf "  %-22s %10d %10d %10d\n" name a b bound;
           need (b <= Int.max a bound)
             (Printf.sprintf "%s grew with run length (%d -> %d, bound %d)" name a b bound))
         bound)
  in
  Printf.printf "  bodies aged out: %d / %d (unanswered: %d / %d)\n" aged_s aged_l unanswered_s
    unanswered_l;
  let growth = float_of_int (live_l - live_s) /. float_of_int (Int.max 1 (ops_l - ops_s)) in
  Printf.printf "  live words: %d at %d ops (budget %d), %d at %d ops\n" live_s ops_s live_budget
    live_l ops_l;
  Printf.printf "  events queued at the end: %d (budget %d)\n" queued_l memory_pending_budget;
  Printf.printf "  growth: %.2f words/op = %.3f KB/op (budget %.2f words/op)\n%!" growth
    (growth *. float_of_int (Sys.word_size / 8) /. 1024.0)
    memory_words_budget;
  verdict "memory"
    (tables
    @ need
        (unanswered_s + unanswered_l = 0)
        "a body was aged out while its request was unanswered"
    @ need
        (growth <= memory_words_budget)
        (Printf.sprintf "live words grow %.2f per extra op (budget %.2f)" growth
           memory_words_budget)
    @ need (live_s <= live_budget)
        (Printf.sprintf "%d live words after the short run (budget %d)" live_s live_budget)
    @ need
        (queued_l <= memory_pending_budget)
        (Printf.sprintf "%d events queued at the end (budget %d)" queued_l memory_pending_budget))

(* Deterministic hashing gates. Cluster.create over the sql_vote_insert-
   shaped service (2,048 app pages, 1,600 filler rows of 1.5 KB) must hash
   at most 1.1x its 8 MiB app region: the first replica's genesis Merkle
   update hashes the boot image, and the other replicas, whose pages
   alias that image, take its leaf digests from the frozen-page memo; it
   reads 0.85x (7,099,456 bytes). When every replica hashed its own tree
   this read 3.34x. A one-second run of the same workload, set-up
   included, must hash at most 15,360 bytes per completed op (1.28x the
   12,025 it reads): the speculative undo snapshots hash nothing, so
   what is left is the genesis trees, the checkpoint folds and the
   messages. When every undo folded the dirty pages into the tree this
   read 69,616 B/op. A 1 KiB Hmac.mac under a prepared key (one that has
   MACed before, as every session key on the hot path has) must allocate
   at most 16 minor words; restoring the key's midstates into one working
   context measures 12, copying them 60. The kernel SHA-256 runs on (the x86-64 SHA extensions
   when CPUID reports them, the OCaml rounds otherwise), the speeds of
   both kernels and the null service's Cluster.create bytes are
   informational. *)
let genesis_hash_budget = 1.1
let run_hash_budget = 15_360.0
let hmac_words_budget = 16.0

let run_hashing () =
  banner "Hashing — SHA-256 speed, HMAC allocation, genesis Merkle bytes";
  (* Best of 7 timed batches of about 4 MiB each. *)
  let best_seconds ~calls f =
    let best = ref infinity in
    for _ = 1 to 7 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (f ()))
      done;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  (* The kernel CPUID selected, then the portable OCaml rounds, which a
     host without the SHA extensions runs. *)
  let kernel = Crypto.Sha256.kernel in
  Printf.printf "  sha256 kernel    %s\n%!" kernel;
  let kernels =
    (kernel, Crypto.Sha256.init ())
    :: (if kernel = "ocaml" then [] else [ ("ocaml", Crypto.Sha256.portable ()) ])
  in
  List.iter
    (fun (name, ctx) ->
      List.iter
        (fun n ->
          let msg = String.make n 'x' in
          let calls = (4 lsl 20) / n in
          let s =
            best_seconds ~calls (fun () ->
                Crypto.Sha256.reset ctx;
                Crypto.Sha256.feed ctx msg;
                Crypto.Sha256.finalize ctx)
          in
          Printf.printf "  sha256 %-6s %4d B %7.1f MB/s\n%!" name n
            (float_of_int (calls * n) /. s /. 1e6))
        [ 4096; 1024; 74 ])
    kernels;
  let key = Crypto.Hmac.key (String.make 16 'k') in
  let kib = String.make 1024 'm' in
  let calls = 4096 in
  let s = best_seconds ~calls (fun () -> Crypto.Hmac.mac ~key kib) in
  Printf.printf "  hmac 1 KiB       %7.0f ns/call\n%!" (s /. float_of_int calls *. 1e9);
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Crypto.Hmac.mac ~key kib))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  Printf.printf "  hmac 1 KiB       %7.1f minor words/call (budget %.0f)\n%!" words
    hmac_words_budget;
  let cfg = Pbft.Config.default ~f:1 in
  let hashed_by f =
    let h0 = Crypto.Sha256.bytes_hashed () in
    let x = f () in
    (Crypto.Sha256.bytes_hashed () - h0, x)
  in
  let null_hashed, _ =
    hashed_by (fun () ->
        Pbft.Cluster.create ~seed:!seed ~num_clients:12 ~service:(Pbft.Service.null ()) cfg)
  in
  Printf.printf "  Cluster.create   %d bytes hashed, null service (informational)\n%!" null_hashed;
  let service =
    match (Harness.Experiments.sql_large_state_spec cfg).Harness.Run.groups with
    | Harness.Run.Service s -> s
    | Harness.Run.Sharded _ -> invalid_arg "run_hashing: sharded spec"
  in
  let region = service.Pbft.Service.app_pages * service.Pbft.Service.page_size in
  let hashed, _ =
    hashed_by (fun () -> Pbft.Cluster.create ~seed:!seed ~num_clients:12 ~service cfg)
  in
  let ratio = float_of_int hashed /. float_of_int region in
  Printf.printf "  Cluster.create   %d bytes hashed = %.2fx the %d-byte app region (budget %.2fx)\n%!"
    hashed ratio region genesis_hash_budget;
  let run_hashed, result =
    hashed_by (fun () ->
        Harness.Run.run (Harness.Experiments.sql_large_state_spec ~seed:!seed ~duration:1.0 cfg))
  in
  let per_op = float_of_int run_hashed /. float_of_int (max 1 result.Harness.Run.completed) in
  Printf.printf "  1 s run          %d bytes hashed / %d ops = %.0f B/op (budget %.0f)\n%!"
    run_hashed result.Harness.Run.completed per_op run_hash_budget;
  verdict "hashing"
    (need (ratio <= genesis_hash_budget)
       (Printf.sprintf "Cluster.create hashed %.2fx its app region (budget %.2fx)" ratio
          genesis_hash_budget)
    @ need (per_op <= run_hash_budget)
        (Printf.sprintf "the 1 s sql_vote_insert run hashed %.0f B per op (budget %.0f)" per_op
           run_hash_budget)
    @ need (words <= hmac_words_budget)
        (Printf.sprintf "Hmac.mac allocates %.1f minor words per call (budget %.0f)" words
           hmac_words_budget))

(* Byzantine fault scenarios with a pass/fail gate, run twice: serial
   (the PR 5 suite) and with the speculative execution pipeline on,
   which adds the view-change-mid-speculation rollback scenario. On
   failure the failing scenario is re-run with tracing on and the
   message log dumped to faults-trace.txt — the artifact CI uploads. *)
let run_faults () =
  banner "Byzantine fault scenarios (adversarial suite)";
  let check ~speculative =
    let results =
      List.map
        (fun scenario ->
          let outcome = Harness.Faults.run scenario in
          Printf.printf "  %s\n%!" (Harness.Faults.render scenario outcome);
          (scenario, snd outcome))
        (Harness.Faults.suite ~seed:!seed ~speculative ())
    in
    match List.filter (fun (_, failures) -> failures <> []) results with
    | [] -> []
    | ((scenario, failures) :: _) as failed ->
      (* Re-run the first failing scenario with the trace enabled so the
         dump actually contains the messages that led to the failure. *)
      let c, _ = Harness.Faults.run ~trace:true scenario in
      let oc = open_out "faults-trace.txt" in
      output_string oc
        (Printf.sprintf "behavior: %s (speculative=%b)\nfailures:\n  %s\n\n"
           scenario.Harness.Faults.name speculative
           (String.concat "\n  " failures));
      output_string oc
        (Simnet.Trace.render ~limit:5000
           (Pbft.Cluster.trace (Harness.Run.cluster c.Harness.Faults.result.deployment 0))
           (fun _ -> true));
      close_out oc;
      [
        Printf.sprintf "%d adversarial scenario(s) failed; trace in faults-trace.txt"
          (List.length failed);
      ]
  in
  verdict "faults"
    (match check ~speculative:false with
    | [] ->
      Printf.printf "  -- with speculation (pipeline depth 4, 2 cores) --\n%!";
      check ~speculative:true
    | failed -> failed)

(* Pipelined speculation with the PR 6 acceptance gate: the deep pipeline
   must clear 2x both its own serial baseline (same 64-client workload)
   and the Table-1 default row (12 clients) in virtual TPS. *)
let table1_default = "table1:sta_mac_allbig_batch"

let run_pipeline () =
  banner "Pipelined speculation — serial vs depth 8 x 4 cores";
  let dur = length 1.5 in
  let show (m : Harness.Hostbench.row) =
    Printf.printf "  %-28s vTPS %9.1f  core util %4.2f  spec execs %7d  rollbacks %d\n%!" m.name
      (e2e m "virtual_tps")
      Util.Metrics.(to_float (find m.metrics ~node:run_node ~layer:"simnet" "core_utilization"))
      (Util.Metrics.total m.metrics ~layer:"pbft" "speculative_executions")
      (Util.Metrics.total m.metrics ~layer:"pbft" "rollbacks")
  in
  let table1 = measure_named ~duration:dur table1_default in
  let serial = measure_named ~duration:dur "pipeline:serial" in
  let deep = measure_named ~duration:dur "pipeline:depth8_cores4" in
  show table1;
  show serial;
  show deep;
  let ratio b m =
    if e2e b "virtual_tps" > 0.0 then e2e m "virtual_tps" /. e2e b "virtual_tps" else 0.0
  in
  Printf.printf "  pipelined vs serial baseline: %.2fx;  vs Table-1 default: %.2fx\n%!"
    (ratio serial deep) (ratio table1 deep);
  verdict "pipeline"
    (need
       (ratio serial deep >= 2.0 && ratio table1 deep >= 2.0)
       (Printf.sprintf
          "pipelined throughput is %.2fx the serial baseline / %.2fx Table-1 (need >= 2x both)"
          (ratio serial deep) (ratio table1 deep)))

(* Open-loop overload sweep with the PR 7 acceptance gates: arrival rate
   x gateway flush size over 10k sessions through the front door. The
   saturated (peak) open-loop vTPS must clear the closed-loop Table-1
   default row, p99 latency at 80% of the saturating rate must stay
   bounded, and the per-request event/allocation budgets must hold — the
   O(1) hot-path refactors are what keep them flat as sessions scale. *)
let run_openloop () =
  banner "Open-loop overload — arrival rate x gateway batch size";
  let dur = length 1.0 in
  let spec_at ~rate ~flush_bytes =
    let spec =
      Harness.Experiments.open_loop_spec ~seed:!seed ~duration:dur (Harness.Run.Poisson rate)
    in
    {
      spec with
      Harness.Run.door =
        Option.map (fun door -> { door with Webgate.Frontdoor.flush_bytes }) spec.Harness.Run.door;
    }
  in
  let show (m : Harness.Hostbench.row) =
    Printf.printf
      "  %-28s offered %8.0f/s  vTPS %8.1f  p50 %6.1fms  p99 %7.1fms  shed %6d  gw-peak %5d\n%!"
      m.name
      Util.Metrics.(to_float (find m.metrics ~node:run_node ~layer:"load" "offered_load"))
      (e2e m "virtual_tps")
      (e2e m "p50_latency" *. 1e3)
      (e2e m "p99_latency" *. 1e3)
      (Util.Metrics.total m.metrics ~layer:"webgate" "shed") (Util.Metrics.total m.metrics ~layer:"webgate" "queue_peak")
  in
  let rates = [ 2_000.0; 8_000.0; 16_000.0; 32_000.0 ] in
  let flushes = [ 4 * 1024; 16 * 1024 ] in
  let sweep =
    List.concat_map
      (fun flush_bytes ->
        List.map
          (fun rate ->
            let name = Printf.sprintf "openloop:r%.0f_f%dk" rate (flush_bytes / 1024) in
            let m = Harness.Hostbench.measure ~name (spec_at ~rate ~flush_bytes) in
            show m;
            (rate, flush_bytes, m))
          rates)
      flushes
  in
  let sat_rate, sat_flush, sat =
    match sweep with
    | [] -> assert false
    | first :: rest ->
      List.fold_left
        (fun ((_, _, b) as acc) ((_, _, m) as cand) ->
          if e2e m "virtual_tps" > e2e b "virtual_tps" then cand else acc)
        first rest
  in
  let closed = measure_named ~duration:dur table1_default in
  Printf.printf "  saturated open-loop vTPS %.1f (rate %.0f/s, flush %dB); closed-loop Table-1 %.1f\n%!"
    (e2e sat "virtual_tps") sat_rate sat_flush (e2e closed "virtual_tps");
  (* 80%-of-saturation run: the latency knee should not have been crossed,
     so the tail must stay bounded and the per-request budgets flat. *)
  let backoff =
    Harness.Hostbench.measure ~name:"openloop:backoff80"
      (spec_at ~rate:(0.8 *. sat_rate) ~flush_bytes:sat_flush)
  in
  show backoff;
  let alloc_bytes m = e2e m "alloc_words_per_request" *. float_of_int (Sys.word_size / 8) in
  Printf.printf "  backoff80: events/req %.1f  alloc/req %.0fB  sessions %d  evictions %d\n%!"
    (e2e backoff "events_per_request") (alloc_bytes backoff) (Util.Metrics.total backoff.metrics ~layer:"load" "sessions")
    (Util.Metrics.total backoff.metrics ~layer:"webgate" "session_evictions");
  let p99_bound = 0.25 in
  let events_budget = 200.0 in
  let alloc_budget = 2_000_000.0 in
  verdict "openloop"
    (need
       (e2e sat "virtual_tps" >= e2e closed "virtual_tps")
       (Printf.sprintf "saturated open-loop vTPS %.1f < closed-loop Table-1 default %.1f"
          (e2e sat "virtual_tps") (e2e closed "virtual_tps"))
    @ need
        (e2e backoff "p99_latency" <= p99_bound)
        (Printf.sprintf "p99 at 80%% of saturation %.3fs > %.3fs bound" (e2e backoff "p99_latency")
           p99_bound)
    @ need
        (e2e backoff "events_per_request" <= events_budget)
        (Printf.sprintf "events/request %.1f > %.1f budget" (e2e backoff "events_per_request")
           events_budget)
    @ need
        (alloc_bytes backoff <= alloc_budget)
        (Printf.sprintf "alloc/request %.0fB > %.0fB budget" (alloc_bytes backoff) alloc_budget))

(* Sharded PBFT with the PR 8 acceptance gates: virtual TPS versus shard
   count on a purely shardable workload (1/2/4 shards, the 2-shard run
   must clear 1.7x the single-shard baseline), a cross-shard mix row for
   the 2PC tax, and the Byzantine-coordinator-mid-2PC scenario (no shard
   may commit; every prepared shard rolls back via its COW undo
   snapshot). Writes BENCH-shards.json. *)
let run_shards () =
  banner "Sharded PBFT — vTPS vs shard count";
  let dur = length ~quick_length:0.8 2.0 in
  let spec ?cross shards =
    {
      (Harness.Shards.spec ~shards ?cross ()) with
      Harness.Run.seed = !seed;
      duration = dur;
      warmup = (if !quick then 0.25 else 0.5);
    }
  in
  let show (m : Harness.Hostbench.row) =
    let lanes =
      List.filter_map
        (fun ((k : Util.Metrics.key), v) ->
          if String.equal k.layer "shards" && String.equal k.name "completed" then
            Some (Printf.sprintf "%.0f" (Util.Metrics.to_float v /. e2e m "window"))
          else None)
        m.metrics
    in
    Printf.printf
      "  %-24s vTPS %9.1f  p99 %6.1fms  shed %6d  cross %d/%d  shard vTPS [%s]\n%!" m.name
      (e2e m "virtual_tps")
      (e2e m "p99_latency" *. 1e3)
      (Util.Metrics.total m.metrics ~layer:"webgate" "shed") (Util.Metrics.total m.metrics ~layer:"shards" "cross_commits")
      (Util.Metrics.total m.metrics ~layer:"shards" "cross_aborts") (String.concat "; " lanes)
  in
  let sweep =
    List.map
      (fun shards ->
        let m =
          Harness.Hostbench.measure
            ~name:(Printf.sprintf "shards:%d" shards)
            (spec shards)
        in
        show m;
        m)
      [ 1; 2; 4 ]
  in
  (* The 2PC tax, informational: same 2-shard deployment with 10% of
     operations becoming cross-shard transfers. *)
  let crossed =
    Harness.Hostbench.measure ~name:"shards:2_cross10"
      (spec ~cross:0.1 2)
  in
  show crossed;
  let vtps n =
    match List.nth_opt sweep n with
    | Some m -> e2e m "virtual_tps"
    | None -> 0.0
  in
  let ratio2 = if vtps 0 > 0.0 then vtps 1 /. vtps 0 else 0.0 in
  let ratio4 = if vtps 0 > 0.0 then vtps 2 /. vtps 0 else 0.0 in
  Printf.printf "  scaling: 2 shards %.2fx, 4 shards %.2fx the single-shard baseline\n%!" ratio2
    ratio4;
  let byz = Harness.Shards.byzantine_coordinator ~seed:!seed () in
  print_string (Harness.Shards.render_byz byz);
  write_json "BENCH-shards.json" (Harness.Hostbench.to_json ~now:(iso8601 ()) (sweep @ [ crossed ]));
  Printf.printf "  wrote BENCH-shards.json (%d workloads)\n%!" (List.length sweep + 1);
  verdict "shards"
    (need (ratio2 >= 1.7)
       (Printf.sprintf "2-shard vTPS is %.2fx the single-shard baseline (need >= 1.7x)" ratio2)
    @ List.map
        (Printf.sprintf "Byzantine-coordinator scenario: %s")
        byz.Harness.Shards.bz_failures)

(* Long-horizon churn with the PR 10 acceptance gates: a rolling
   crash/repair plan (every 4th crash takes the current primary) under
   continuous light load, with proactive key refresh running on the
   virtual clock throughout. Availability must clear the 99% floor,
   every rejoin must go through the Merkle-diff transfer, and the diff
   must move strictly fewer pages than a full transfer would. Writes
   BENCH-churn.json. *)
let run_churn () =
  banner "Availability under churn — rolling crash/restart plan";
  let churn = Harness.Experiments.churn_spec ~seed:!seed in
  let spec =
    if !quick then churn ~horizon:60.0 ~period:12.0 ()
    else
      (* Full mode: a virtual hour of churn — a crash every 2.5 minutes
         (24 in all, every 4th taking the current primary), 20-second
         repair windows, proactive key refresh every 10 minutes. Load is
         moderate (~16 req/s): enough that checkpoints advance while a
         victim is down, so every rejoin has a real Merkle diff to
         move, while keeping the hour to a couple of host minutes. *)
      let spec = churn ~think:0.25 ~horizon:3_600.0 ~period:150.0 ~downtime:20.0 () in
      {
        spec with
        Harness.Run.bucket = 10.0;
        cfg = { spec.Harness.Run.cfg with Pbft.Config.key_refresh_period = 600.0 };
      }
  in
  let m = Harness.Hostbench.measure ~name:"churn:rolling" spec in
  let reading snap name =
    Util.Metrics.(to_float (find snap ~node:run_node ~layer:"churn" name))
  in
  let crashes = Util.Metrics.total m.metrics ~layer:"churn" "crashes" and restarts = Util.Metrics.total m.metrics ~layer:"churn" "restarts" in
  let availability = reading m.metrics "availability" in
  let rejoins = Util.Metrics.total m.metrics ~layer:"pbft" "rejoin_transfers" in
  let fetched = Util.Metrics.total m.metrics ~layer:"statemgr" "transfer_pages_fetched"
  and full = Util.Metrics.total m.metrics ~layer:"statemgr" "transfer_pages_full" in
  Printf.printf
    "  %-24s crashes %d  restarts %d  avail %.4f  mean_rec %.3fs  max_rec %.3fs\n%!"
    m.Harness.Hostbench.name crashes restarts availability
    (reading m.metrics "mean_recovery")
    (reading m.metrics "max_recovery");
  Printf.printf "  %-24s rejoin transfers %d  demotion transfers %d  pages %d/%d (diff/full)\n%!"
    "" rejoins (Util.Metrics.total m.metrics ~layer:"pbft" "demotion_transfers") fetched full;
  write_json "BENCH-churn.json" (Harness.Hostbench.to_json ~now:(iso8601 ()) [ m ]);
  Printf.printf "  wrote BENCH-churn.json\n%!";
  (* Full mode only: a short availability-vs-crash-rate sweep on the
     60 s spec, for the EXPERIMENTS.md table. Informative, not gated —
     the floor above is the contract. *)
  if not !quick then
    List.iter
      (fun period ->
        let r = Harness.Run.run (churn ~horizon:60.0 ~period ()) in
        let snap = r.Harness.Run.metrics in
        Printf.printf
          "  crash every %5.1fs: avail %.4f  crashes %d  mean_rec %.3fs  max_rec %.3fs\n%!" period
          (reading snap "availability")
          (Util.Metrics.get snap ~node:Util.Metrics.run_node ~layer:"churn" "crashes")
          (reading snap "mean_recovery") (reading snap "max_recovery"))
      [ 30.0; 12.0; 6.0 ];
  verdict "churn"
    (need (e2e m "completed" > 0.0) "no client progress over the horizon"
    @ need (availability >= 0.99)
        (Printf.sprintf "availability %.4f under churn is below the 0.99 floor" availability)
    @ need
        (restarts = crashes && crashes > 0)
        (Printf.sprintf "crash plan incomplete: %d crashes, %d restarts" crashes restarts)
    @ need (rejoins >= restarts)
        (Printf.sprintf "only %d rejoin transfers for %d restarts" rejoins restarts)
    @ need
        (full > 0 && fetched < full)
        (Printf.sprintf "Merkle diff saved nothing: fetched %d of %d pages" fetched full)
    @ List.map (Printf.sprintf "churn run: %s") m.failures)

(* --- the paper's tables and figures --- *)

(* Each is (section, banner, regenerator); a regenerator takes the seed
   and the {!override}. *)
let timed f seed duration = Harness.Report.render (f ?seed:(Some seed) ?duration ())

let regenerators : (string * string * (int -> float option -> string)) list =
  Harness.Experiments.
    [
      ("figure1", "Figure 1 — normal-case operation", fun seed _ -> figure1 ~seed ());
      ("figure2", "Figure 2 — dynamic client join", fun seed _ -> figure2 ~seed ());
      ("figure3", "Figure 3 — SQLite-VFS inside PBFT", fun seed _ -> figure3 ~seed ());
      ("table1", "Table 1 / Figure 4", timed table1);
      ("figure5", "Figure 5", timed figure5);
      ("acid", "ACID vs No-ACID (§4.2)", timed acid_comparison);
      ( "recovery",
        "Recovery vs rebroadcast period (§2.3)",
        fun seed _ -> Harness.Report.render (recovery ~seed ()) );
      ( "packet-loss",
        "Single datagram loss (§2.4)",
        fun seed _ -> Harness.Report.render (packet_loss ~seed ()) );
      ( "nondet",
        "Non-determinism validation vs replay (§2.5)",
        fun seed _ -> Harness.Report.render (nondet_validation ~seed ()) );
      ("wan", "Wide-area deployment (§3.3.3)", timed wan);
      ("sizes", "Payload size sweep (§4.1)", timed payload_sweep);
      ("loss", "Loss sweep (robustness vs optimization)", timed loss_sweep);
      ("ablation", "Batching ablation", timed batching_ablation);
      ("pipesweep", "Pipelining sweep — vTPS vs depth x cores", timed pipeline_sweep);
    ]

let sections : (string * (unit -> unit)) list =
  [
    ("micro", run_micro);
    ("bench", run_hostbench);
    ("digest", run_digest);
    ("sqlidx", run_sqlidx);
    ("memory", run_memory);
    ("hashing", run_hashing);
    ("pipeline", run_pipeline);
    ("faults", run_faults);
    ("openloop", run_openloop);
    ("shards", run_shards);
    ("churn", run_churn);
  ]
  @ List.map
      (fun (name, title, regenerate) ->
        ( name,
          fun () ->
            banner title;
            print_string (regenerate !seed (override ())) ))
      regenerators

(* [vdiff A.json B.json]: the virtual-number equivalence check between
   two BENCH v8 files. Workloads are matched by name and compared field
   by field, a nested field named by its path ("layers.pbft.rollbacks"),
   skipping the host-dependent fields; every difference is printed as
   (workload, field, old, new) and any difference exits 1. *)
let host_fields = [ "generated"; "end_to_end.alloc_words_per_request" ]

let vdiff a b =
  let load path =
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Webgate.Json.parse text
  in
  let rec fields = function
    | Webgate.Json.Obj kvs ->
      List.concat_map
        (fun (k, v) ->
          match v with
          | Webgate.Json.Obj _ -> List.map (fun (k', v') -> (k ^ "." ^ k', v')) (fields v)
          | _ -> [ (k, v) ])
        kvs
    | _ -> []
  in
  let workloads doc =
    match Webgate.Json.member_opt "workloads" doc with
    | Some (Webgate.Json.Arr ws) ->
      List.map (fun w -> (Webgate.Json.to_string_exn (Webgate.Json.member "name" w), fields w)) ws
    | _ -> []
  in
  let differences = ref 0 in
  let compare_fields scope old_kvs new_kvs =
    let show = function Some v -> Webgate.Json.print v | None -> "(absent)" in
    let names = List.sort_uniq String.compare (List.map fst old_kvs @ List.map fst new_kvs) in
    List.iter
      (fun field ->
        let o = List.assoc_opt field old_kvs and n = List.assoc_opt field new_kvs in
        if (not (List.mem field host_fields)) && not (String.equal (show o) (show n)) then begin
          incr differences;
          Printf.printf "%s\t%s\t%s\t%s\n" scope field (show o) (show n)
        end)
      names
  in
  let da = load a and db = load b in
  let top doc = List.filter (fun (k, _) -> not (String.equal k "workloads")) (fields doc) in
  compare_fields "(document)" (top da) (top db);
  let wa = workloads da and wb = workloads db in
  List.iter
    (fun name ->
      compare_fields name
        (Option.value ~default:[] (List.assoc_opt name wa))
        (Option.value ~default:[] (List.assoc_opt name wb)))
    (List.sort_uniq String.compare (List.map fst wa @ List.map fst wb));
  Printf.printf "%d difference(s)\n" !differences;
  if !differences > 0 then exit 1

let usage () =
  Printf.sprintf
    "usage: main.exe [section ...] [--seed N] [--duration S] [--quick]\n\
    \       main.exe vdiff OLD.json NEW.json\n\
     --duration sets the paper sections' length only; the gates keep theirs\n\
     sections: %s (default: all)\n"
    (String.concat " " (List.map fst sections))

let seconds s =
  match float_of_string_opt s with
  | Some d when Float.is_finite d && d > 0.0 -> Some d
  | _ -> None

let bad why =
  Printf.eprintf "%s\n%s" why (usage ());
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "vdiff"; a; b ] -> vdiff a b
  | args ->
    let rec parse wanted = function
      | [] -> List.rev wanted
      | "--quick" :: rest ->
        quick := true;
        parse wanted rest
      | "--seed" :: n :: rest when Option.is_some (int_of_string_opt n) ->
        seed := int_of_string n;
        parse wanted rest
      | "--seed" :: _ -> bad "--seed takes an integer"
      | "--duration" :: s :: rest when Option.is_some (seconds s) ->
        duration := seconds s;
        parse wanted rest
      | "--duration" :: _ -> bad "--duration takes a positive number of seconds"
      | "all" :: rest -> parse wanted rest
      | name :: rest when List.mem_assoc name sections -> parse (name :: wanted) rest
      | unknown :: _ -> bad ("unknown section or option: " ^ unknown)
    in
    let wanted = parse [] args in
    List.iter (fun (name, f) -> if wanted = [] || List.mem name wanted then f ()) sections
