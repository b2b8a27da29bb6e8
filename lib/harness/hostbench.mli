(** The BENCH.json rows.

    Every regenerator in {!Experiments} reports *virtual*-time results;
    this module runs the named workloads once each and renders the
    BENCH.json artifact later changes are compared against. A row is the
    run's {!Util.Metrics} snapshot ({!Run.result.metrics}) plus what the
    row itself measured around the run, under
    {!Util.Metrics.run_node}: layer ["end_to_end"] and the process-wide
    deltas. Host wall-clock time is not measured here. *)

type row = {
  name : string;  (** workload identifier, e.g. ["table1:sta_mac_allbig_batch"] *)
  metrics : Util.Metrics.snapshot;
  failures : string list;
      (** safety violations and unfinished rejoins the run found (not
          written to BENCH.json) *)
}

val measure : name:string -> Run.spec -> row
(** Run the spec once and add to its snapshot:
    - ["end_to_end"]: [completed], [window], [virtual_tps],
      [p50_latency]/[p95_latency]/[p99_latency] (virtual seconds),
      [events], [events_per_request], [alloc_words_per_request] (host
      heap words allocated per completed request, boot included; an
      open-loop row counts events and allocation over the measured
      window), and [tentative_completed] for closed-loop client loads;
    - [crypto.bytes_hashed] and [statemgr.bytes_copied] over the run;
    - [relsql.pages_read] and [relsql.rows_scanned] when the run read
      any page. *)

val workloads : ?seed:int -> ?duration:float -> unit -> (string * Run.spec) list
(** The BENCH.json workloads by name: one per Table-1 row
    (["table1:<row>"], 1024-byte null operations), the Figure-5 SQL
    INSERT stream (["sql:insert_acid"]), the checkpoint-cost workload
    over a database pre-filled to ~16x the per-interval working set
    (["ckpt:sql_large_state"]), point and small-range SELECTs over the
    indexed lookup table and the same point stream with no index
    (["sql:indexed_point"], ["sql:indexed_range"], ["sql:forced_scan"]),
    the 64-client pipelining workload serial and 8-deep on 4 cores
    (["pipeline:serial"], ["pipeline:depth8_cores4"]), the 95/5
    read/write mix (["sql:read_mix"]), and open-loop Poisson and bursty
    arrivals through the front door (["openloop:poisson12k"],
    ["openloop:bursty"]). Durations default to 1.5 s. *)

val workload : ?seed:int -> ?duration:float -> string -> Run.spec
(** One of {!workloads} by name. *)

val trace_digest : ?seed:int -> ?seconds:float -> unit -> string
(** Hex SHA-256 over the full message trace (time, src, dst, label, size,
    detail of every datagram) plus the completed-request count of a short
    seeded default-configuration run. Any behavioural change to the
    simulation — event ordering, message bytes, timing — changes this
    digest; pure host-time optimizations must not. *)

val gateway_trace_digest : ?seed:int -> ?seconds:float -> unit -> string
(** The same digest (identical preimage format) over a short seeded
    open-loop run through the {!Webgate.Frontdoor}: bursty arrivals
    exercise both flush triggers, a small queue bound sheds, a small
    session LRU evicts, and retransmissions hit the reply cache. Pins the
    door's behaviour across refactors. *)

val replica_digest_spec : ?seed:int -> unit -> Run.spec
[@@detlint.allow unused_export "the equivalence test pins this run's digest and counters"]
(** A short seeded run that walks the replica's recovery paths: pipelined
    speculation on 4 cores, dynamic-client joins through the system-op
    intake, a view change that rolls speculation back, a mute primary
    voted out, and a backup's crash and Merkle-diff rejoin. *)

val replica_trace_digest : ?seed:int -> unit -> string
(** The same digest over {!replica_digest_spec}. Pins the replica's
    behaviour across refactors. *)

val traced : Run.spec -> string * Run.result
[@@detlint.allow unused_export "the equivalence test reads the run's counters next to its digest"]
(** Run the spec with the message trace on; its digest (the preimage
    format of {!trace_digest}) and the result. *)

val to_json : ?now:string -> row list -> string
(** Render the BENCH.json document, schema v8 (see README.md): per row
    its name, ["end_to_end"] and ["layers"], each layer's names merged
    over its nodes ({!Util.Metrics.layers}). A section nobody registered
    is absent. [now] is an ISO-8601 timestamp recorded verbatim; omitted
    → ["unknown"]. *)
