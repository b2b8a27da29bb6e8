(* The metric names and units each run prints. BENCHMARK.json declares
   the same lists (with directions and bounds); the self-test checks that
   the printed names and units match it exactly. *)

type metric = { name : string; unit : string }

let m name unit = { name; unit }

(* Reported by the untraced run, on every workload. None is ever 0. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "host_us_per_op" "us";
    m "heap_peak_mb" "MB";
    m "vtps" "1/s";
    m "p50_ms" "ms";
    m "p99.7_ms" "ms";
  ]

(* Reported by the traced run, on every workload; a metric that does not
   apply to a workload reads 0 in the JSON line and "n/a" in the text. *)
let per_layer =
  [
    m "setup.service_boot_s" "s";
    m "setup.cluster_s" "s";
    m "simnet.events_per_op" "count";
    m "simnet.engine_ns_per_event" "ns";
    m "simnet.datagrams_per_op" "count";
    m "simnet.bytes_per_op" "B";
    m "simnet.primary_busy" "frac";
    m "simnet.cpu_queue_peak" "count";
    m "simnet.drops" "count";
    m "crypto.hashed_bytes_per_op" "B";
    m "crypto.sha256_ns_per_kb" "ns";
    m "crypto.authenticator_ns" "ns";
    m "pbft.ops_per_batch" "count";
    m "pbft.decode_ns_per_msg" "ns";
    m "pbft.encode_ns_per_msg" "ns";
    m "pbft.tentative_frac" "frac";
    m "pbft.retransmits_per_op" "count";
    m "pbft.view_changes" "count";
    m "pbft.unavail_s" "s";
    m "pbft.rejoin_s" "s";
    m "statemgr.bytes_copied_per_op" "B";
    m "statemgr.snapshots_per_op" "count";
    m "statemgr.ckpt_take_us" "us";
    m "statemgr.page_read_ns" "ns";
    m "statemgr.transfer_pages_fetched" "count";
    m "statemgr.transfer_pages_full" "count";
    m "service.exec_us_per_call" "us";
    m "service.exec_share" "frac";
    m "service.calls_per_op" "count";
    m "service.virt_ms_per_call" "ms";
    m "service.single_node_us_per_call" "us";
    m "relsql.pages_read_per_op" "count";
    m "relsql.rows_scanned_per_op" "count";
    m "webgate.ops_per_flush" "count";
    m "webgate.deadline_flush_frac" "frac";
    m "webgate.queue_peak" "count";
    m "webgate.shed" "count";
    m "gc.alloc_kb_per_op" "KB";
    m "gc.promoted_kb_per_op" "KB";
    m "gc.major_collections" "count";
    m "gc.time_share" "frac";
    m "self.service_us_per_op" "us";
    m "self.gc_us_per_op" "us";
    m "self.tracer_us_per_op" "us";
    m "self.unattributed_us_per_op" "us";
    m "model.crypto_us_per_op" "us";
    m "model.codec_us_per_op" "us";
    m "model.engine_us_per_op" "us";
    m "trace.host_us_per_op" "us";
    m "trace.overhead" "frac";
  ]

(* A number as measured, with all its digits, in JSON syntax. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of a run's output. *)
let result_line ~correct ~attempted ~failed values =
  let metric (m, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number v) m.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric values))
