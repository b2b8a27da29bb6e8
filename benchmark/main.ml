(* The repository benchmark.

   main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
   main.exe                                   (every workload, one process each)
   main.exe --compare PARENT.jsonl CHANGE.jsonl

   A run prints every metric by name with its unit, then, as its last
   line, one JSON object {correct, attempted, failed, metrics}. The
   untraced run (--trace 0) reports the end-to-end metrics, the traced
   run (--trace 1) the per-layer ones; see README.md. It exits 1 when a
   correctness check fails. *)

module W = Workloads

let usage =
  "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]\n\
  \       main.exe --compare PARENT.jsonl CHANGE.jsonl"

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref false
let quick = ref false
let out = ref "benchmark-out"
let parent = ref ""
let change = ref ""

let specs =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME one of the workloads (default: all, one process each)" );
    ("--seed", Arg.Set_int seed, "N input seed (default 1; 2 is held out for claims)");
    ("--seconds", Arg.Set_float seconds, "S host seconds the window is sized for (default 10)");
    ( "--trace",
      Arg.Int (fun v -> trace := v <> 0),
      "0|1 1 = traced run: per-layer metrics and trace files" );
    ("--quick", Arg.Set quick, " short windows and small tables, for the self-test");
    ("--out", Arg.Set_string out, "DIR where the traced run writes its trace files");
    ( "--compare",
      Arg.Tuple [ Arg.Set_string parent; Arg.Set_string change ],
      "PARENT CHANGE compare two sets of runs (JSON lines written by pairs.sh)" );
  ]

let print_metric (m : Metrics.metric) v =
  match v with
  | Some v -> Printf.printf "  %-32s %16.6g %s\n" m.name v m.unit
  | None -> Printf.printf "  %-32s %16s %s\n" m.name "n/a" m.unit

type observed = {
  setup : float * float;  (** host s of the set-up, and of it inside [Service.make] *)
  window : float;
  ops : int;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  host_us_per_op : float;
  slice_us : float list;  (** host us per op of each slice *)
  heap_peak_mb : float;
  p50 : float;
  tail : float;  (** the p99.7 latency *)
  layer : (string * float) list;
  fingerprint : string;  (** deterministic counts, compared by the self-test *)
  labels : (string * int * int) list;
  lost_events : int;
}

(* Spans and per-slice counter snapshots, as JSON lines under --out. *)
let write_trace_files (w : W.t) tr (m : Run.measured) =
  (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
  let path suffix = Filename.concat !out (w.name ^ suffix) in
  Tracer.write_spans tr ~path:(path ".spans.jsonl") ~workload:w.name ~seed:!seed;
  let oc = open_out (path ".slices.jsonl") in
  Array.iteri
    (fun k (s : Run.snap) ->
      Printf.fprintf oc
        "{\"workload\":%S,\"seed\":%d,\"slice\":%d,\"vtime_s\":%.9f,\"host_cpu_s\":%.6f,\"ops\":%d,\"events\":%d,\"datagrams\":%d,\"bytes\":%d,\"dropped\":%d,\"hashed\":%d,\"copied\":%d,\"snapshots\":%d,\"pages_read\":%d,\"rows_scanned\":%d,\"minor_words\":%.0f,\"major_words\":%.0f,\"promoted_words\":%.0f,\"major_collections\":%d}\n"
        w.name !seed k s.vtime s.cpu s.ops s.events s.sent s.bytes s.dropped s.hashed s.copied
        s.snapshots s.pages_read s.rows_scanned s.minor s.major s.promoted s.major_collections)
    m.snaps;
  close_out oc

(* The measured run and, when traced, the replays and trace files. Only
   plain values come back, so the run's cluster can be collected before
   the extra set-ups. *)
let observe (w : W.t) ~tracer =
  let quick = !quick and seed = !seed in
  let m = Run.measure w ~seed ~seconds:!seconds ~quick ~tracer in
  let ops = m.Run.snaps.(Run.slices).Run.ops - m.snaps.(0).ops in
  let slices = Run.slice_stats m in
  let host_us_per_op = Run.median (List.map (fun s -> s.Run.host_us_per_op) slices) in
  let wall_ns = List.fold_left (fun acc s -> acc +. s.Run.wall_ns) 0.0 slices in
  let per_op x = if ops > 0 then x /. float ops else 0.0 in
  let get k = Option.value (List.assoc_opt k m.layer) ~default:0.0 in
  let traced =
    match tracer with
    | None -> []
    | Some tr ->
      let samples = Tracer.samples tr in
      let pending =
        Array.fold_left (fun acc s -> acc + s.Run.pending) 0 m.snaps / Array.length m.snaps
      in
      let engine_ns = Replay.engine_ns_per_event ~pending in
      let sha_ns = Replay.sha256_ns_per_kb m.replica in
      let decode_ns, encode_ns = Replay.codec samples in
      let a = tr.Tracer.a in
      let exec_self = a.exec_ns -. a.gc_in_exec_ns in
      let per_call x = x /. float (Int.max 1 tr.calls) in
      write_trace_files w tr m;
      [
        ("simnet.engine_ns_per_event", engine_ns);
        ("crypto.sha256_ns_per_kb", sha_ns);
        ("crypto.authenticator_ns", Replay.authenticator_ns samples);
        ("pbft.decode_ns_per_msg", decode_ns);
        ("pbft.encode_ns_per_msg", encode_ns);
        ("statemgr.ckpt_take_us", Replay.ckpt_take_us m.replica ~dirty:m.max_dirty);
        ("statemgr.page_read_ns", Replay.page_read_ns m.replica);
        ("service.exec_us_per_call", per_call a.exec_ns /. 1e3);
        ("service.exec_share", a.exec_ns /. wall_ns);
        ("service.calls_per_op", per_op (float tr.calls));
        ("service.virt_ms_per_call", per_call a.exec_vcost *. 1e3);
        ( "service.single_node_us_per_call",
          Replay.single_node_us_per_call (W.make_service w ~quick) (Tracer.ops tr) );
        ("gc.time_share", a.gc_ns /. wall_ns);
        ("self.service_us_per_op", per_op exec_self /. 1e3);
        ("self.gc_us_per_op", per_op a.gc_ns /. 1e3);
        ("self.tracer_us_per_op", per_op a.self_ns /. 1e3);
        ( "self.unattributed_us_per_op",
          per_op (wall_ns -. exec_self -. a.gc_ns -. a.self_ns) /. 1e3 );
        ("model.crypto_us_per_op", get "crypto.hashed_bytes_per_op" /. 1024.0 *. sha_ns /. 1e3);
        ("model.codec_us_per_op", get "simnet.datagrams_per_op" *. (decode_ns +. encode_ns) /. 1e3);
        ("model.engine_us_per_op", get "simnet.events_per_op" *. engine_ns /. 1e3);
        ("trace.host_us_per_op", host_us_per_op);
        ("trace.overhead", a.self_ns /. (wall_ns -. a.self_ns));
      ]
  in
  let at_end = m.snaps.(Run.slices) and at_start = m.snaps.(0) in
  let p50 = Run.percentile m.lat 50.0 and tail = Run.percentile m.lat Run.tail_percentile in
  {
    setup = (m.setup_s, m.boot_s);
    window = m.window;
    ops;
    attempted = m.attempted;
    failed = m.failed;
    checks = m.checks;
    host_us_per_op;
    slice_us = List.map (fun s -> s.Run.host_us_per_op) slices;
    heap_peak_mb = float m.heap_peak_words *. float (Sys.word_size / 8) /. 1048576.0;
    p50;
    tail;
    layer = m.layer @ traced;
    fingerprint =
      Printf.sprintf
        "check: events=%d datagrams=%d bytes=%d hashed=%d alloc_kb_per_op=%.17g ops=%d \
         attempted=%d failed=%d vtps=%.17g p50=%.17g p99.7=%.17g"
        (at_end.events - at_start.events) (at_end.sent - at_start.sent)
        (at_end.bytes - at_start.bytes) (at_end.hashed - at_start.hashed)
        (get "gc.alloc_kb_per_op") ops m.attempted m.failed
        (float ops /. m.window) p50 tail;
    labels = (match tracer with Some tr -> Tracer.labels tr | None -> []);
    lost_events = (match tracer with Some tr -> tr.lost_events | None -> 0);
  }

let run_one (w : W.t) =
  if !quick then Replay.batch_ns := 2e6;
  let tracer = if !trace then Some (Tracer.create ()) else None in
  let o = observe w ~tracer in
  Gc.compact ();
  let extra =
    if !quick then [] else Run.extra_setups w ~seed:!seed ~quick:false ~tracer ~spent:(fst o.setup)
  in
  let setups = o.setup :: extra in
  let setup_s = Run.median (List.map fst setups) in
  let boot_s = Run.median (List.map snd setups) in
  Printf.printf "workload %s  seed %d  window %.3f virtual s  %s\n" w.name !seed o.window
    (if !trace then "traced" else "untraced");
  List.iter
    (fun (name, ok) -> Printf.printf "  check %-40s %s\n" name (if ok then "ok" else "FAILED"))
    o.checks;
  Printf.printf "  set-ups (host s): %s\n"
    (String.concat " " (List.map (fun (s, _) -> Printf.sprintf "%.4f" s) setups));
  Printf.printf "  slices (host us/op): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.1f") o.slice_us));
  print_endline o.fingerprint;
  let values =
    if !trace then
      [ ("setup.service_boot_s", boot_s); ("setup.cluster_s", setup_s -. boot_s) ] @ o.layer
    else
      [
        ("setup_s", setup_s);
        ("host_us_per_op", o.host_us_per_op);
        ("heap_peak_mb", o.heap_peak_mb);
        ("vtps", float o.ops /. o.window);
        ("p50_ms", o.p50 *. 1e3);
        ("p99.7_ms", o.tail *. 1e3);
      ]
  in
  let metrics = if !trace then Metrics.per_layer else Metrics.end_to_end in
  print_endline (if !trace then "per-layer metrics:" else "end-to-end metrics:");
  List.iter
    (fun (mt : Metrics.metric) -> print_metric mt (List.assoc_opt mt.name values))
    metrics;
  if !trace then begin
    Printf.printf "datagrams by label in the window: %s\n"
      (String.concat ", "
         (List.map (fun (l, n, b) -> Printf.sprintf "%s %d (%d B)" l n b) o.labels));
    Printf.printf "runtime events lost: %d\n" o.lost_events
  end;
  let sound (_, v) = Float.is_finite v && (!trace || v > 0.0) in
  let correct = List.for_all snd o.checks && List.for_all sound values in
  let reported =
    List.map
      (fun (mt : Metrics.metric) ->
        let v = Option.value (List.assoc_opt mt.name values) ~default:0.0 in
        (mt, if Float.is_finite v then v else 0.0))
      metrics
  in
  print_endline (Metrics.result_line ~correct ~attempted:o.attempted ~failed:o.failed reported);
  if not correct then exit 1

(* Without --workload: every workload in its own process, one after
   another. *)
let run_all () =
  let failed = ref false in
  List.iter
    (fun (w : W.t) ->
      let args =
        [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int !seed; "--seconds";
           Printf.sprintf "%g" !seconds; "--trace"; (if !trace then "1" else "0"); "--out"; !out |]
      in
      let args = if !quick then Array.append args [| "--quick" |] else args in
      let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failed := true)
    W.all;
  if !failed then exit 1

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !parent <> "" then exit (Compare.main ~parent:!parent ~change:!change)
  else if !workload = "" then run_all ()
  else
    match W.find !workload with
    | Some w -> run_one w
    | None ->
      Printf.eprintf "unknown workload %s (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
      exit 2
