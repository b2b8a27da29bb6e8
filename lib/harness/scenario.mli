(** Experiment driver: the role of the paper's Python/netcat controller
    (§4) — build a cluster, coordinate clients, run a timed workload and
    aggregate the measurements. *)

type spec = {
  cfg : Pbft.Config.t;
  seed : int;
  num_clients : int;
  service : Pbft.Service.t;
  profile : Simnet.Net.profile;
  warmup : float;  (** seconds before measurement starts *)
  duration : float;  (** measured seconds *)
  op : client:int -> seq:int -> string;  (** operation generator *)
  readonly : bool;  (** submit operations as read-only *)
  think_time : float;  (** client delay between requests; 0 = closed loop *)
}

val default_spec : Pbft.Config.t -> spec
(** 12 clients, null service, LAN profile, 0.5 s warmup, 2 s measurement,
    1024-byte null ops, seed 1. *)

val retained_bound : spec -> Pbft.Replica.retained
(** Ceiling on each {!Pbft.Replica.retained} count of any replica in a
    closed-loop run of [spec], however long: one request per client per
    sequence number of the log window plus one checkpoint interval for
    the per-request tables, one request per client for the queues, the
    log window for the per-sequence tables. *)

type outcome = {
  tps : float;
  completed : int;
  mean_latency : float;
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  retransmissions : int;
  view_changes : int;
  demotion_transfers : int;
      (** state transfers started by running replicas that fell behind a
          stable checkpoint (§2.4), summed over replicas *)
  rejoin_transfers : int;
      (** state transfers started by the crash/restart rejoin path *)
  transfer_pages_fetched : int;
      (** distinct pages actually pulled by completed transfers — the
          Merkle-diff cost *)
  transfer_pages_full : int;
      (** pages the same transfers would have pulled without the Merkle
          diff (every leaf) — the savings baseline *)
  demotions : int;
      (** replicas that fell behind a stable checkpoint and re-joined via
          state transfer (the §2.4 demotion pathology) *)
  rollbacks : int;
      (** speculative-execution rollbacks: view changes that undid
          executed-but-uncommitted batches (summed over replicas) *)
  speculative_execs : int;
      (** batches executed before their commit certificate landed — serial
          tentative execution and pipelined speculation both count *)
  tentative_completed : int;
      (** client requests accepted on a 2f+1 tentative-reply quorum rather
          than waiting for f+1 stable replies, within the measured window *)
  auth_failures : int;
  nondet_rejects : int;
  shed : int;
      (** operations rejected by gateway admission control (0 without a
          gateway in front) *)
  gw_evictions : int;
      (** gateway session records displaced by LRU capacity pressure *)
  gw_queue_peak : int;
      (** high-water mark of the gateway's pending queue *)
  replica_queue_peak : int;
      (** max over replicas of the CPU dispatch queue's high-water mark *)
  ro_cache_evictions : int;
      (** replica read-only reply-cache LRU evictions, summed *)
  shards : int;
      (** replica groups serving the workload; 1 for every single-group
          driver, the topology's shard count for {!Shards.run} *)
  shard_tps : float array;
      (** per-shard completed operations per virtual second; a one-element
          array mirroring [tps] in single-group runs *)
  shard_queue_peak : int array;
      (** per-shard front-door pending-queue high-water marks *)
  cross_shard_commits : int;
      (** 2PC transactions committed on every participant (0 single-group) *)
  cross_shard_aborts : int;
      (** 2PC transactions aborted — vote-aborts and coordinator timeouts *)
}

val run : ?hook:(Pbft.Cluster.t -> unit) -> spec -> outcome
(** Build the cluster (joining clients first in dynamic mode), run the
    warmup, measure for [duration], and aggregate. [hook] runs after
    construction and before the workload — the place to schedule fault
    injections on the cluster's engine. *)

val run_cluster : ?hook:(Pbft.Cluster.t -> unit) -> spec -> outcome * Pbft.Cluster.t
(** Like {!run} but also hands back the cluster for post-hoc inspection
    (per-replica counters, traces). *)
