(** The gateway front door: open-loop session fan-in, request coalescing,
    and explicit flow control in front of a PBFT cluster — or, in its
    sharded mode ({!create_sharded}), in front of N independent replica
    groups with a cross-shard 2PC coordinator.

    Many lightweight client sessions (tens of thousands) send small
    binary frames to one well-known address. The door coalesces queued
    operations into batched upstream requests — flushed when
    [flush_bytes] of operations accumulate (size trigger) or when the
    oldest waits [flush_deadline] (deadline trigger) — and multiplexes
    them over a small pool of real {!Pbft.Client} connections, composing
    with the primary's own request batching. Admission control sheds
    load with a distinguishable status instead of queueing without
    bound, and session records live in a bounded LRU so the door's
    memory is O(max_sessions) regardless of how many sessions ever
    connect.

    Every upstream batch, even a single operation, is a coalesced
    operation ({!encode_coalesced}), so a session's op reaches the
    service exactly as the session sent it: an op that happens to look
    like a coalesced batch is executed as one opaque op of its sender,
    never unpacked.

    A sharded door routes each operation with {!Relsql.Shard.classify}.
    A single-shard op joins that shard's lane — the queue, triggers and
    pool an unsharded door has — and a lane batch rides the read-only
    fast path only when every op in it is provably read-only. A
    cross-shard op runs {!Relsql.Twopc} with the door as the *untrusted*
    coordinator, one transaction at a time: the involved lanes are
    blocked and drained, each group prepares its slice as an ordered op
    whose agreed (and, with service keys, f+1-certified) reply is its
    vote, and the commit carries every vote for the groups to verify
    themselves. A vote-abort, prepare timeout or Byzantine participant
    aborts everywhere via each shard's copy-on-write undo snapshot; the
    agreed prepare deadline bounds what a crashed or malicious
    coordinator can hold.

    A session's cached last reply is keyed on (route, request id): a
    single-shard retransmission never matches a stale cross-shard reply
    that reused the id. *)

val frontdoor_addr : int
(** The door's network address (4000). *)

(** {1 Session frames} *)

val encode_request : session:int -> req_id:int -> op:string -> string

val decode_request : string -> (int * int * string) option
[@@trust.source "edge-session frame decoded off the wire (unauthenticated until the replicas' MAC check)"]
[@@detlint.allow unused_export "the front-door codec round-trip tests"]

type status = Done | Shed  (** [Shed] marks an admission-control rejection. *)

val encode_reply : status:status -> session:int -> req_id:int -> result:string -> string
[@@detlint.allow unused_export "the front-door codec round-trip tests"]

val decode_reply : string -> (status * int * int * string) option
[@@trust.source "gateway reply frame decoded off the wire"]

(** {1 Coalesced upstream operations} *)

val encode_coalesced : (int * string) list -> string
[@@detlint.allow unused_export "the front-door codec round-trip tests"]
(** Pack [(session, op)] pairs into one upstream operation. *)

val decode_coalesced : string -> (int * string) list option
[@@trust.source "coalesced batch unpacked from an ordered operation"]
[@@detlint.allow unused_export "the front-door codec round-trip tests"]
(** [None] when the operation is not a coalesced batch. *)

val encode_results : string list -> string
[@@detlint.allow unused_export "the front-door codec round-trip tests"]

val decode_results : string -> string list option
[@@trust.source "per-session results unpacked from an upstream reply"]
[@@detlint.allow unused_export "the front-door codec round-trip tests"]

val wrap_service : Pbft.Service.t -> Pbft.Service.t
(** Wrap a service so coalesced operations execute element-wise against
    it (each element runs with its front-door session id as the service
    [client], so session-scoped state keys by session). Ordinary
    operations pass through unchanged. *)

(** {1 The door} *)

type config = {
  connections : int;
      (** upstream PBFT client connections per replica group (the pool the
          caller builds; the door uses the clients it is given) *)
  flush_bytes : int;  (** size trigger: flush once this many op bytes are queued *)
  flush_deadline : float;  (** deadline trigger: max queueing delay before a partial flush *)
  max_queue : int;
      (** admission bound: operations queued beyond this (per lane, and on
          the cross-shard queue) are shed *)
  max_sessions : int;  (** LRU bound on live session records *)
}

type t

val create :
  cfg:config ->
  engine:Simnet.Engine.t ->
  net:Simnet.Net.t ->
  clients:Pbft.Client.t array ->
  unit ->
  t
(** Register an unsharded door (one lane, no routing) at
    {!frontdoor_addr}. [clients] are the upstream connections (already
    created and keyed); the cluster's service must be wrapped with
    {!wrap_service} for coalesced batches to execute. Raises
    [Invalid_argument] if [clients] is empty, [flush_bytes < 1],
    [flush_deadline <= 0] or [max_queue < 1]. *)

val create_sharded :
  cfg:config ->
  topology:Relsql.Shard.topology ->
  prepare_timeout:float ->
  tx_ttl:float ->
  classify:(string -> bool) ->
  engine:Simnet.Engine.t ->
  net:Simnet.Net.t ->
  lanes:(Pbft.Client.t array * Pbft.Client.t) array ->
  unit ->
  t
(** Register a sharded door at {!frontdoor_addr} on [net], the edge net
    sessions reach it on. [lanes.(s)] is shard [s]'s upstream pool:
    (data connections, control connection) — all clients of group [s]
    on that group's own net, whose service is wrapped with
    {!wrap_service}. [classify] is the service's read-only proof.
    [prepare_timeout] is the coordinator's patience before aborting a
    2PC round; [tx_ttl] the agreed prepare-deadline delta carried in the
    prepare op. Raises [Invalid_argument] as {!create} does, and if the
    lane count differs from the topology's shard count. *)

val completed : t -> int
(** Operations answered with a quorum-accepted result. *)

val shed : t -> int
(** Operations rejected by admission control. *)

val flushes_size : t -> int
val flushes_deadline : t -> int
(** Upstream batches dispatched by each trigger. *)

val queue_peak : t -> int
(** High-water mark of the pending queue (the largest lane's). *)

(** {1 Telemetry}

    The door registers its counters on the engine's {!Util.Metrics}
    registry at creation, under node {!frontdoor_addr}: layer
    ["webgate"] — [completed], [shed], [rejected] (malformed frames
    dropped), [reply_cache_hits] (retransmissions answered from the
    per-session last-reply cache), [flushes_size], [flushes_deadline],
    [session_evictions] (records displaced by the [max_sessions] LRU
    bound) and the gauge [queue_peak]. A sharded door adds layer
    ["shards"]: [cross_commits], [cross_aborts] and [cross_timeouts]
    (aborts the coordinator's prepare timer triggered) under
    {!frontdoor_addr}, and per lane, under the shard's index,
    [completed] (session operations; a cross-shard commit counts once
    for every participant) and the gauge [queue_peak]. The getters above
    read the same cells. *)

val live_sessions : t -> int
[@@detlint.allow unused_export "the session-LRU tests and the equivalence hash read it"]

val latency_stats : t -> Util.Stats.t
(** Enqueue-to-reply latency of completed operations (virtual seconds);
    shed operations are not recorded. *)

val shutdown : t -> unit
[@@detlint.allow unused_export "the open-loop tests stop the door after a run"]
