(** Deployment wiring: build a full PBFT cluster (replicas + clients) on a
    simulated network, mirroring the paper's testbed of 4 replicas and 12
    clients on 8 hosts behind a 1 GbE switch (§4). *)

open Types

type t

val create :
  ?seed:int ->
  ?profile:Simnet.Net.profile ->
  ?costs:Costmodel.t ->
  ?num_clients:int ->
  ?service:Service.t ->
  ?threshold_replies:bool ->
  ?engine:Simnet.Engine.t ->
  ?net:Simnet.Net.t ->
  Config.t ->
  t
(** Build engine, network, registry, [cfg.n] replicas and [num_clients]
    clients (default 12). In static mode the clients are pre-registered
    and their MAC session keys installed out of band (the a-priori key
    distribution PBFT assumes); in dynamic mode clients start outside the
    membership and must {!Client.join}.

    [engine]/[net] let a multi-group (sharded) deployment place several
    clusters on one shared engine, each in its own network address
    space; when [net] is given its engine wins, when only [engine] is
    given a fresh net is created on it, and [seed] only matters when the
    cluster creates the engine itself. *)

val engine : t -> Simnet.Engine.t
val net : t -> Simnet.Net.t
val trace : t -> Simnet.Trace.t
val config : t -> Config.t

val registry : t -> Replica.registry
(** The replicas' public keys and the group configuration — what a
    client created outside the cluster (e.g. a browser) needs to verify
    replica signatures. *)

val replicas : t -> Replica.t array
val replica : t -> replica_id -> Replica.t
val clients : t -> Client.t array
val client : t -> int -> Client.t

val run : t -> seconds:float -> unit
(** Advance virtual time. *)

val run_until_quiet : ?max_seconds:float -> t -> unit
(** Drain events until the simulation is idle or the horizon passes. *)

val restart_replica : t -> replica_id -> unit
(** Stop-and-restart the given replica (§2.3); the array entry is
    replaced with the recovering instance. If the replica was previously
    {!crash_replica}ed (or had a stable checkpoint), the new instance
    reloads the disk image and rejoins via Merkle-diff transfer. *)

val crash_replica : t -> replica_id -> unit
(** Crash the given replica in place: it goes silent and loses all
    volatile state, keeping only its disk checkpoint. The array entry is
    unchanged (still addressable for counters) until {!restart_replica}
    revives it. *)

val total_completed : t -> int
(** Sum of completed requests across clients. *)

val threshold_public : t -> Crypto.Threshold.public option
(** The service's threshold verification key, when [threshold_replies]
    was enabled at creation (§3.3.1). *)
