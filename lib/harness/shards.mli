(** Sharded deployments: N independent PBFT replica groups on one
    engine, each owning a hash partition of the `accounts` table, fronted
    by a sharded {!Webgate.Frontdoor} and driven by closed-loop edge
    sessions.

    This is the ROADMAP's horizontal-scaling experiment: the per-group
    protocol work that caps a single group's vTPS is divided across
    groups, so a shardable workload (single-shard point reads and
    updates) should scale near-linearly with the shard count at a fixed
    cost model — the curve `bench -- shards` gates. Cross-shard
    transactions pay the 2PC premium and serialize through the
    coordinator; the [cross_fraction] knob measures how quickly that tax
    erodes the scaling. *)

type spec = {
  shards : int;
  cfg : Pbft.Config.t;  (** per-group configuration (the groups are identical) *)
  seed : int;
  sessions : int;
  pool : int;  (** upstream data connections per shard lane *)
  rows : int;  (** pre-populated accounts, spread across shards by id hash *)
  warmup : float;
  duration : float;
  cross_fraction : float;  (** fraction of operations that are cross-shard transfers *)
  read_fraction : float;  (** of single-shard operations, fraction that are point SELECTs *)
  certs : bool;  (** deal per-group threshold keys; 2PC votes carry real certificates *)
  profile : Simnet.Net.profile;
  flush_bytes : int;
  flush_deadline : float;
  max_queue : int;
  prepare_timeout : float;
  tx_ttl : float;
}

val default_spec : ?shards:int -> unit -> spec
(** f=1 groups, 32 sessions over 8 data connections per shard, 512 rows,
    0.5 s warmup / 2 s measurement, pure single-shard 70/30 read/update
    mix, certs off, LAN profile. *)

type deployment

val build : spec -> deployment
(** Construct engine, per-group nets and clusters, door and topology —
    without starting any workload (scenarios drive it by hand). *)

val engine : deployment -> Simnet.Engine.t
val edge : deployment -> Simnet.Net.t
val door : deployment -> Webgate.Frontdoor.t
val cluster : deployment -> int -> Pbft.Cluster.t
val topology : deployment -> Relsql.Shard.topology

val service_first_page : int
(** First page of the service region on a replica (the middleware keeps
    the pages before it). *)

val service_app_pages : int
(** Pages the accounts service asks for. *)

val accounts_schema : string

val init_sql : Relsql.Shard.topology -> shard:int -> rows:int -> string list
(** Batched INSERTs pre-populating exactly the ids the shard owns; the
    reference executions in tests use it to seed identical state. *)

val key_on_shard : deployment -> int -> int
(** Smallest pre-populated account id owned by the given shard. *)

val rpc : ?timeout:float -> deployment -> string -> string
(** One-shot edge session: send the SQL through the door, drive the
    engine until the reply lands (or [timeout] virtual seconds pass —
    then ["error:rpc-timeout"]). *)

val run_for : deployment -> float -> unit
(** Advance the shared engine. *)

val region_root : deployment -> shard:int -> replica:int -> string
(** Merkle root of the service's page region on one replica — the
    per-shard state digest the qcheck property and the fault scenario
    compare. *)

val pages_region_root : Statemgr.Pages.t -> string
(** The same digest over a bare page set laid out like a replica's
    (service region at {!service_first_page}) — for reference
    executions. *)

type outcome = {
  so_vtps : float;  (** door-completed operations per virtual second *)
  so_completed : int;
  so_shard_tps : float array;
  so_shard_queue_peak : int array;
  so_cross_commits : int;
  so_cross_aborts : int;
  so_cross_timeouts : int;
  so_flushes_size : int;
  so_flushes_deadline : int;
  so_p50 : float;
  so_p95 : float;
  so_p99 : float;
  so_shed : int;
  so_cache_hits : int;
  so_errors : int;  (** session replies carrying an error body *)
}

val run : spec -> outcome * deployment
(** Build, start the closed-loop sessions, warm up, measure. *)

(** {2 The Byzantine-coordinator fault scenario}

    One shard's primary goes mute mid-2PC: the healthy shard prepares
    (holding its copy-on-write undo snapshot), the faulty group stalls,
    the coordinator times out and aborts — no shard commits, every
    prepared shard rolls back, balances are untouched, and after the
    faulty group's view change the deferred abort completes and a fresh
    cross-shard transfer commits. *)

type byz_report = {
  bz_abort_reply : string;  (** session-visible reply of the doomed transfer *)
  bz_cross_commits : int;  (** door commits during the fault window (want 0) *)
  bz_cross_aborts : int;
  bz_cross_timeouts : int;
  bz_undo_restores : int;  (** {!Relsql.Twopc.aborts} delta — COW roll-backs *)
  bz_view_changes : int;  (** on the Byzantine shard's group *)
  bz_balances_held : bool;  (** both balances read back unchanged after the abort *)
  bz_states_agree : bool;  (** per-group replica region roots all match *)
  bz_recovery_reply : string;  (** post-view-change transfer (must commit) *)
  bz_failures : string list;  (** empty = scenario passed *)
}

val byzantine_coordinator : ?spec:spec -> unit -> byz_report
val render_byz : byz_report -> string
