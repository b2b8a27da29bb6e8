(** Host wall-clock benchmark harness.

    Every regenerator in {!Experiments} reports *virtual*-time results; the
    binding constraint on how large an experiment we can afford is the
    *host* CPU cost of replaying simulated messages through the
    encode → MAC → digest → decode hot path. This module measures that
    cost: host seconds, simulator events/sec and SHA-256 bytes/sec for the
    Table-1 workloads and the SQL INSERT workload, next to the virtual TPS
    they produce. [to_json] renders the BENCH.json perf-trajectory
    artifact that later optimization PRs are judged against. *)

type measurement = {
  name : string;  (** workload identifier, e.g. ["table1:sta_mac_allbig_batch"] *)
  host_seconds : float;  (** host wall-clock for the whole run (incl. warmup) *)
  events : int;  (** simulator events executed *)
  events_per_sec : float;  (** events / host_seconds *)
  bytes_hashed : int;  (** SHA-256 input bytes consumed by the run *)
  hashed_mb_per_sec : float;  (** bytes_hashed / host_seconds, in MB/s *)
  virtual_tps : float;  (** virtual-time requests/sec from the scenario *)
  completed : int;  (** requests completed in the measured window *)
  checkpoint_count : int;  (** stable/tentative checkpoints taken, summed over replicas *)
  undo_snapshots : int;  (** tentative-execution undo snapshots, summed over replicas *)
  bytes_copied : int;  (** page bytes duplicated by copy-on-write during the run *)
  bytes_copied_per_checkpoint : float;
      (** bytes_copied / (checkpoint_count + undo_snapshots); 0 if no snapshots *)
  deep_copy_bytes_per_checkpoint : float;
      (** what a deep-copy checkpointer would move per snapshot: one replica's
          allocated pages x page size, averaged over replicas at run end *)
  pages_read : int;  (** B-tree pages touched by the relational engine during the run *)
  rows_scanned : int;  (** candidate rows the engine materialized and evaluated *)
  speculative_executions : int;
      (** batches executed before their commit certificate landed, summed
          over replicas — serial tentative execution and pipelined
          speculation both count *)
  rollbacks : int;  (** view changes that undid speculative executions, summed over replicas *)
  tentative_completed : int;
      (** requests the clients accepted on a 2f+1 tentative-reply quorum
          (read-only fast path and tentative execution); 0 on door rows *)
  core_utilization : float;
      (** run-average busy fraction of the replicas' virtual CPU cores *)
  p50_latency : float;  (** request latency percentiles, virtual seconds *)
  p95_latency : float;
  p99_latency : float;
  shed : int;  (** gateway admission-control rejections (0 closed-loop) *)
  gw_evictions : int;  (** gateway session-LRU evictions *)
  gw_queue_peak : int;  (** gateway pending-queue high-water mark *)
  replica_queue_peak : int;  (** max replica CPU dispatch-queue high-water mark *)
  ro_cache_evictions : int;  (** replica read-only reply-cache LRU evictions *)
  sessions : int;  (** open-loop sessions simulated (0 closed-loop) *)
  arrivals : int;  (** open-loop arrivals in the measured window *)
  offered_load : float;  (** mean offered arrival rate, requests/s *)
  flushes_size : int;  (** gateway batches flushed by the size trigger *)
  flushes_deadline : int;  (** gateway batches flushed by the deadline trigger *)
  reply_cache_hits : int;  (** retransmissions answered from the gateway reply cache *)
  events_per_request : float;  (** simulation events per completed request *)
  alloc_per_request : float;  (** host heap bytes allocated per completed request *)
  shards : int;  (** replica groups serving the workload (1 single-group) *)
  shard_tps : float array;  (** per-shard completed ops per virtual second *)
  shard_queue_peak : int array;  (** per-shard front-door queue high-water marks *)
  cross_commits : int;  (** 2PC transactions committed on every participant *)
  cross_aborts : int;  (** 2PC transactions aborted (vote or timeout) *)
  cross_timeouts : int;  (** of [cross_aborts], coordinator-timeout triggered *)
  demotion_transfers : int;  (** §2.4 fell-behind transfers, summed over replicas *)
  rejoin_transfers : int;  (** crash/restart rejoin transfers, summed over replicas *)
  transfer_pages_fetched : int;
      (** pages actually moved by completed transfers — the Merkle-diff cost *)
  transfer_pages_full : int;
      (** pages the same transfers would move without the diff (every leaf) *)
  crashes : int;  (** replica crashes scheduled (churn workload only) *)
  restarts : int;  (** replica restarts completed (churn workload only) *)
  availability : float;
      (** fraction of sampling buckets with client progress (churn only) *)
  mean_recovery : float;  (** mean crash-to-rejoin seconds (churn only) *)
  max_recovery : float;  (** worst crash-to-rejoin seconds (churn only) *)
  failures : string list;
      (** safety violations and unfinished rejoins the run found (not
          written to BENCH.json) *)
}

val measure : name:string -> Run.spec -> measurement
(** Run the spec once, sampling host clock, SHA-256 bytes, copy-on-write
    bytes, relational-engine counters and heap allocation around it.
    Blocks that do not apply to the spec (door, shards, churn) read 0. *)

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
(** A short seeded run that walks the replica's recovery paths: pipelined
    speculation on 4 cores, dynamic-client joins through the system-op
    intake, a view change that rolls speculation back, a mute primary
    voted out, and a backup's crash and Merkle-diff rejoin. *)

val replica_trace_digest : ?seed:int -> unit -> string
(** The same digest over {!replica_digest_spec}. Pins the replica's
    behaviour across refactors. *)

val traced : Run.spec -> string * Run.result
(** Run the spec with the message trace on; its digest (the preimage
    format of {!trace_digest}) and the result. *)

val to_json : ?now:string -> measurement list -> string
(** Render the BENCH.json document (see README.md for the schema). [now]
    is an ISO-8601 timestamp recorded verbatim; omitted → ["unknown"]. *)
