(** One deployment, one run: the role of the paper's test controller (§4).

    A {!spec} is a whole experiment as a value: the replica groups and
    their service, an optional coalescing front door, the load, the
    warmup/measure/drain phases and a fault plan of timed actions.
    {!run} builds it, drives warmup → measured window → drain on the
    virtual clock, and returns one {!result}. Everything is seeded and
    deterministic: the same spec replays bit for bit. *)

(** {1 Specs} *)

type arrival =
  | Poisson of float  (** constant mean arrival rate, requests/s *)
  | Bursty of { base : float; burst : float; period : float; duty : float }
      (** square wave: [burst] req/s for [duty]·[period] of each period,
          [base] req/s for the rest *)
  | Diurnal of { mean : float; amplitude : float; period : float }
      (** sinusoid: mean·(1 + amplitude·sin(2πt/period)) *)

val rate_at : arrival -> float -> float
[@@detlint.allow unused_export "the arrival-process tests check the rate curves"]
(** Instantaneous rate at virtual time [t]. *)

val mean_rate : arrival -> float
[@@detlint.allow unused_export "the arrival-process tests check the mean rates"]
(** Long-run mean of the process, for offered-load reporting. *)

type groups =
  | Service of Pbft.Service.t  (** one replica group running the service *)
  | Sharded of { topology : Relsql.Shard.topology; service : int -> Pbft.Service.t; certs : bool }
      (** one group per shard of [topology], group [s] running [service s]
          under two-phase commit behind a sharded door; [certs] deals
          per-group threshold keys so 2PC votes carry real certificates *)

type load =
  | Clients of {
      clients : int;
      op : client:int -> seq:int -> string;
      think : float;  (** client delay between requests; 0 = closed loop *)
    }
      (** closed-loop {!Pbft.Client}s, one request outstanding each, no
          door; an operation goes read-only when the service classifies
          it so; dynamic configurations join every client first *)
  | Sessions of { sessions : int; op : client:int -> seq:int -> string }
      (** closed-loop sessions through the door, retransmitting until
          answered and retrying shed requests *)
  | Arrivals of {
      sessions : int;
      arrival : arrival;
      op_bytes : int;
      conns : int;  (** shared virtual connections the sessions multiplex over *)
      retransmit : float option;  (** per-request retransmit interval; [None] = fire and forget *)
    }
      (** open-loop arrivals through the door, regardless of how many
          requests are still in flight *)

type target =
  | Replica of int
  | Primary of int
      (** the replica [k] places after the current primary, resolved
          when the action fires *)

type action =
  | Adversary of int * Pbft.Adversary.behavior  (** make the replica Byzantine *)
  | Crash of target * float  (** crash the replica; restart it after the given downtime *)
  | Restart of int  (** stop-and-restart the replica in place (§2.3) *)
  | Drop of string  (** drop every replica's outbound datagrams with this label *)
  | Heal  (** clear every replica's link faults *)
  | Drop_next of (src:int -> dst:int -> label:string -> bool)
      (** drop the next datagram matching the predicate *)

type spec = {
  cfg : Pbft.Config.t;  (** per-group configuration *)
  seed : int;
  profile : Simnet.Net.profile;
  groups : groups;
  door : Webgate.Frontdoor.config option;  (** required by door loads and {!Sharded} *)
  load : load;
  warmup : float;  (** seconds before the measured window *)
  duration : float;  (** measured seconds *)
  drain : float;  (** seconds run after the load stops, before counters are read *)
  plan : (float * action) list;
      (** actions on the first group at absolute virtual times; a
          non-empty plan also makes every replica record its execution
          journal, which {!result.failures} checks *)
  bucket : float;  (** availability sampling period over the measured window; 0 = off *)
  trace : bool;  (** keep the message trace on *)
}

val clients : ?clients:int -> ?think:float -> (client:int -> seq:int -> string) -> load
(** Closed-loop clients (default 12, no think time). *)

val closed : Pbft.Config.t -> spec
(** The Table-1 shape: 12 clients sending 1024-byte null operations to
    one group, LAN profile, 0.5 s warmup, 2 s measured, seed 1. *)

val rotation :
  n:int -> start:float -> stop:float -> period:float -> downtime:float -> primary_every:int ->
  (float * action) list
(** A rolling crash/repair plan: a crash every [period] seconds after
    [start], each victim down for [downtime]. Victims rotate over the
    backups, and every [primary_every]-th crash takes the current
    primary. The tail before [stop] is left crash-free so the last
    victim can finish rejoining. *)

val retained_bound : spec -> Pbft.Replica.retained
(** Ceiling on each {!Pbft.Replica.retained} count of any replica in a
    closed-loop run of [spec], however long: one request per client per
    sequence number of the log window plus one checkpoint interval for
    the per-request tables, one request per client for the queues, the
    log window for the per-sequence tables. *)

(** {1 Deployments} *)

type deployment

val build : spec -> deployment
(** Engine, groups and door, with no load started and no plan armed. *)

val engine : deployment -> Simnet.Engine.t
val cluster : deployment -> int -> Pbft.Cluster.t
val door : deployment -> Webgate.Frontdoor.t option
[@@detlint.allow unused_export "the door tests read its sessions and completions"]

val edge : deployment -> Simnet.Net.t
[@@detlint.allow unused_export "the shard tests inject faults on the edge net"]
(** The net sessions reach the door on. *)

val topology : deployment -> Relsql.Shard.topology
(** The partitioning (one shard for a {!Service} deployment). *)

val run_for : deployment -> float -> unit
(** Advance the shared engine. *)

val rpc : deployment -> string -> string
(** One-shot session: send the operation through the door and drive the
    engine until the reply lands, or return ["error:rpc-timeout"] once
    30 virtual seconds pass without one. *)

(** {1 Results} *)

type result = {
  deployment : deployment;
  completed : int;  (** in the measured window, as the load counts it *)
  window : float;  (** length of the measured window, virtual seconds *)
  tps : float;
  latency : Util.Stats.t;
      (** requests completed in the measured window, timed by their
          client or generator; door-side over the whole run for
          {!Sessions} *)
  tentative : int;
      (** window requests accepted on a tentative quorum; 0 for door
          loads, whose invokes each carry a coalesced batch *)
  retransmissions : int;  (** client retransmissions, whole run *)
  events : int;  (** simulation events, whole run *)
  window_events : int;
  window_alloc : float;  (** host heap bytes allocated in the window *)
  opened : int;  (** {!progress} when the measured window opened *)
  marks : int list;
      (** {!progress} when each plan action fired and when each crashed
          replica came back, in time order *)
  mutations : int;  (** adversary activity *)
  failures : string list Lazy.t;
      (** safety violations between correct replicas and crash incidents
          that never rejoined; empty when the plan is; computed (journal
          comparison, Merkle roots) when forced *)
  metrics : Util.Metrics.snapshot;
      (** The engine's registry at the end of the run — every replica
          incarnation, retired ones included, and the door — plus what
          the run itself read, under {!Util.Metrics.run_node} unless
          noted:
          - ["simnet"]: [cpu_queue_peak] per replica id (every
            incarnation's CPU dispatch-queue high-water mark) and
            [core_utilization] (mean busy fraction of the incarnations'
            cores since time 0);
          - ["statemgr"]: [allocated_page_bytes], the mean allocated
            page bytes per incarnation;
          - ["load"], door loads only: [sessions]; an open-loop load adds
            [arrivals] (in the window), [offered_load] (mean requests/s),
            [gen_shed] and [gen_retransmissions] (whole run); a session
            load counts [errors], replies carrying an error body;
          - ["churn"], when the plan crashes or restarts a replica:
            [crashes], [restarts], [availability] (fraction of sampled
            buckets with progress), [mean_recovery] and [max_recovery]
            (crash to rejoin-complete, seconds) and [unrecovered].

          For a {!Sessions} load the counters of layers ["webgate"],
          ["shards"] and ["load"] cover the measured window. *)
}

val run : spec -> result

val progress : deployment -> int
(** Operations completed so far: door answers, or client completions
    without a door. *)

val live : deployment -> Pbft.Replica.t list
(** The first group's current incarnations. *)

val retired : deployment -> Pbft.Replica.t list
(** Incarnations replaced by a restart, newest first. *)

val adversaries : spec -> int list
(** Replicas the plan makes Byzantine. *)

val safety : Pbft.Replica.t list -> string list
[@@detlint.allow unused_export "the crash tests check safety on a live deployment"]
(** Pairwise committed-journal agreement over common sequence numbers,
    then Merkle-root agreement between replicas at the same executed
    sequence number; human-readable violations (empty = safe). *)
