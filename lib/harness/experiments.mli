(** One regenerator per table and figure of the paper (see DESIGN.md's
    experiment index). Each returns a {!Report.t}; [duration] trades
    precision for wall-clock time. *)

val with_flags :
  dynamic:bool -> macs:bool -> allbig:bool -> batching:bool -> Pbft.Config.t -> Pbft.Config.t
(** Apply one Table-1 library-configuration row's flags to a base config. *)

val table1_rows : (string * float * (bool * bool * bool * bool)) list
(** The ten rows of Table 1: name, paper TPS, and
    (dynamic, macs, allbig, batching) flags. *)

val sql_spec : ?seed:int -> ?duration:float -> acid:bool -> Pbft.Config.t -> Run.spec
(** The Figure-5 workload: single-row SQL INSERTs against the replicated
    relational engine. *)

val sql_large_state_spec :
  ?seed:int -> ?duration:float -> ?app_pages:int -> Pbft.Config.t -> Run.spec
(** The checkpoint-cost workload: the same INSERT stream, but the
    database is pre-populated (at boot, into the genesis checkpoint) with
    bulky filler rows so the allocated page count is roughly 16x the
    per-checkpoint working set. Deep-copy checkpointing is O(allocated)
    here; copy-on-write is O(working set). *)

val lookup_fill_sql : ?rows:int -> ?row_bytes:int -> unit -> string list
(** INSERT batches pre-populating the lookup table ([rows] rows whose key
    column cycles through 256 values, [row_bytes] of pad each; defaults 6400 rows). *)

val indexed_sql_spec :
  ?seed:int ->
  ?duration:float ->
  ?app_pages:int ->
  indexed:bool ->
  range:bool ->
  Pbft.Config.t ->
  Run.spec
(** Read-mostly access-path workload: point ([range:false]) or
    small-range ([range:true]) aggregate SELECTs over the pre-filled
    lookup table. [indexed] controls only whether the boot-time init
    creates the secondary index — the operation stream is identical, so
    indexed-vs-scan comparisons isolate the access path. *)

val pipeline_cfg : depth:int -> cores:int -> unit -> Pbft.Config.t
(** The Table-1 default configuration with the given agreement-pipeline
    depth and virtual core count; depth 1 / 1 core is the serial
    baseline. *)

val pipeline_spec :
  ?seed:int -> ?duration:float -> ?num_clients:int -> Pbft.Config.t -> Run.spec
(** The pipelining workload: 1024-byte null operations from enough
    closed-loop clients (default 64) to keep a deep pipeline fed. *)

val pipeline_sweep : ?seed:int -> ?duration:float -> unit -> Report.t
(** Throughput versus pipeline depth x cores (the EXPERIMENTS.md
    pipelining table); each row notes speculative executions and
    rollbacks. *)

val read_mix_spec : ?seed:int -> ?duration:float -> ?app_pages:int -> Pbft.Config.t -> Run.spec
(** 95/5 read/write SQL mix over the indexed lookup table. The SELECTs
    are planner-proven read-only ({!Relsql.Database.is_readonly_sql})
    and ride the fast path as tentative replies; the INSERTs order
    through agreement. *)

val open_loop_spec : ?seed:int -> ?duration:float -> Run.arrival -> Run.spec
(** Open-loop arrivals from 10k sessions over 64 connections, 256-byte
    null operations, through a 16-connection front door with 8 KiB / 5 ms
    flush triggers. *)

val churn_spec :
  ?seed:int ->
  ?think:float ->
  ?horizon:float ->
  ?period:float ->
  ?downtime:float ->
  unit ->
  Run.spec
(** Availability under churn: four key-value writers (20 ms think time)
    against an f=1 group while {!Run.rotation} crashes a replica every
    [period] seconds (default 15) for [downtime] (1 s) over a [horizon]
    (180 s) measured window, every fourth crash on the primary; rejoins
    re-key at once, live replicas roll their keys every 5 s, and
    availability is sampled in 0.25 s buckets. Seed 7. *)

val table1 : ?seed:int -> ?duration:float -> unit -> Report.t
(** Table 1: the ten library configurations under 1024-byte null
    operations, 12 clients / 4 replicas. Figure 4 plots the same
    series. *)

val figure5 : ?seed:int -> ?duration:float -> unit -> Report.t
(** Figure 5: single-row INSERT throughput (ACID, rollback journal) with
    batching on, varying MACs × big-request handling × dynamic clients. *)

val acid_comparison : ?seed:int -> ?duration:float -> unit -> Report.t
(** §4.2: the most robust configuration with dynamic clients, ACID
    versus No-ACID. *)

val figure1 : ?seed:int -> unit -> string
(** Normal-case message flow: the Figure 1 sequence, rendered from the
    message trace of one request through the default configuration. *)

val figure2 : ?seed:int -> unit -> string
(** Dynamic client Join (Figure 2): the two-phase challenge–response and
    ordered system request, rendered from the trace. *)

val figure3 : ?seed:int -> unit -> string
(** The SQLite-VFS-inside-PBFT architecture (Figure 3): a replicated SQL
    transaction's trace, showing the pre-prepare carrying agreed
    non-deterministic data and the resulting replies. *)

val recovery : ?seed:int -> ?periods:float list -> unit -> Report.t
(** §2.3: stop-and-restart a replica under MAC authenticators; measured
    stall until the session-key rebroadcast unblocks recovery, as a
    function of the rebroadcast period, plus the message-load cost of
    shortening it. *)

val packet_loss : ?seed:int -> unit -> Report.t
(** §2.4: a single lost datagram. Case A: a big-request body dropped on
    its way to one replica — that replica stalls until the next stable
    checkpoint triggers a state transfer. Case B: a non-big request
    dropped on its way to the primary — the client retransmits and no
    replica stalls. Case C: case A with the body-fetch remedy enabled. *)

val nondet_validation : ?seed:int -> unit -> Report.t
(** §2.5: log replay during recovery under the three validation policies
    (none, delta, delta-with-recovery-skip); delta validation rejects
    the replayed requests' stale timestamps and impedes recovery. *)

val wan : ?seed:int -> ?duration:float -> unit -> Report.t
(** §3.3.3: the same service at WAN latencies for f = 1 and f = 2;
    latency inflation from quadratic message complexity. *)

val payload_sweep : ?seed:int -> ?duration:float -> unit -> Report.t
(** §4.1: the paper varied request/response sizes over 256–4096 bytes and
    found "the results ... are similar"; this sweep checks the same. *)

val loss_sweep : ?seed:int -> ?duration:float -> unit -> Report.t
(** The paper's summary claim quantified: "the high performance numbers
    come at the cost of decreased robustness" — throughput of the default
    (optimized) versus robust configuration as background UDP loss rises.
    The optimized configuration leans on big-request handling, so every
    lost client→replica body costs a replica a checkpoint-recovery cycle;
    the robust configuration degrades gracefully. *)

val batching_ablation : ?seed:int -> ?duration:float -> unit -> Report.t
(** Design ablation: congestion-window / aggregation-delay sensitivity of
    the default configuration (DESIGN.md design-choice index). *)
