(** Sharded deployments: N independent PBFT replica groups on one
    engine, each owning a hash partition of the [accounts] table, fronted
    by a sharded {!Webgate.Frontdoor} and driven by closed-loop edge
    sessions ({!Run.Sharded} with {!Run.Sessions}).

    This is the horizontal-scaling experiment: the per-group protocol
    work that caps a single group's vTPS is divided across groups, so a
    shardable workload (single-shard point reads and updates) should
    scale near-linearly with the shard count at a fixed cost model — the
    curve `bench -- shards` gates. Cross-shard transactions pay the 2PC
    premium and serialize through the coordinator; the [cross] knob
    measures how quickly that tax erodes the scaling. *)

(** {1 The accounts table} *)

val accounts_schema : string
[@@detlint.allow unused_export "the reference-replay test rebuilds each shard alone"]

val service_first_page : int
[@@detlint.allow unused_export "the reference-replay test rebuilds each shard alone"]
(** First page of the service region on a replica (the middleware keeps
    the pages before it). *)

val service_app_pages : int
[@@detlint.allow unused_export "the reference-replay test rebuilds each shard alone"]
(** Pages the accounts service asks for. *)

val init_sql : Relsql.Shard.topology -> shard:int -> rows:int -> string list
[@@detlint.allow unused_export "the reference-replay test rebuilds each shard alone"]
(** Batched INSERTs pre-populating exactly the ids the shard owns. *)

val spec :
  ?shards:int -> ?sessions:int -> ?rows:int -> ?cross:float -> ?certs:bool -> unit -> Run.spec
(** f=1 groups (default 1), 96 sessions over 8 data connections per
    shard, 512 rows, 0.5 s warmup / 2 s measurement, a single-shard
    70/30 read/update mix with no cross-shard transfers, certs off, LAN
    profile. *)

val key_on_shard : Run.deployment -> int -> int
[@@detlint.allow unused_export "the shard tests pick keys on a given shard"]
(** Smallest account id owned by the given shard. *)

val region_root : Run.deployment -> shard:int -> replica:int -> string
[@@detlint.allow unused_export "the reference-replay test compares deployed roots"]
(** Merkle root of the service's page region on one replica — the
    per-shard state digest the qcheck property and the fault scenario
    compare. *)

val pages_region_root : Statemgr.Pages.t -> string
[@@detlint.allow unused_export "the reference-replay test compares reference roots"]
(** The same digest over a bare page set laid out like a replica's
    (service region at {!service_first_page}) — for reference
    executions. *)

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

val byzantine_coordinator : ?spec:Run.spec -> unit -> byz_report
val render_byz : byz_report -> string
