(** A PBFT client.

    Implements the client side of the protocol: request transmission to
    the primary (or multicast for big and read-only requests), reply
    quorum collection — f+1 matching stable replies, or 2f+1 matching
    tentative replies when the tentative-execution optimization is in
    play — retransmission to all replicas on timeout, MAC session-key
    establishment with periodic blind rebroadcast (§2.3), and the
    two-phase dynamic Join / Leave of §3.1.

    A client has at most one outstanding request (the PBFT rule that
    makes batching capture cross-client parallelism).

    All of that exists once, here, whatever the wire: a {!Transport}
    only addresses, frames and unframes messages. The default is the
    native datagram protocol; a browser is this same client over
    [Webgate.Gateway.json_transport] (§3.3.3). *)

open Types

type t

val create :
  cfg:Config.t ->
  costs:Costmodel.t ->
  engine:Simnet.Engine.t ->
  net:Simnet.Net.t ->
  addr:int ->
  ?transport:Transport.t ->
  signer:Crypto.Keychain.signer ->
  registry:Replica.registry ->
  ?threshold_public:Crypto.Threshold.public ->
  ?client_id:client_id ->
  unit ->
  t
(** [client_id] is required for static-membership deployments; dynamic
    clients acquire one by {!join}. [transport] defaults to
    {!Transport.datagram}[ costs]. *)

val addr : t -> int
val client_id : t -> client_id option

val session_key_for : t -> replica_id -> Crypto.Mac.key
(** The MAC key this client chose for the given replica (created on
    demand); static-mode setup installs these into replicas directly. *)

val join : t -> idbuf:string -> (client_id option -> unit) -> unit
(** Dynamic two-phase join; the callback receives the assigned client id,
    or [None] if the service denied or timed out the join. *)

val leave : t -> unit

val invoke : t -> ?readonly:bool -> string -> (string -> unit) -> unit
(** Submit one operation; the callback fires with the accepted result.
    Raises [Failure] if a request is already outstanding or the client
    has no identity yet. *)

val invoke_certified : t -> ?readonly:bool -> string -> (string -> string option -> unit) -> unit
(** Like {!invoke}, but when the deployment carries a threshold service
    key (§3.3.1) the callback also receives the combined reply
    certificate — verifiable offline with {!Certificate.verify}. *)

val invoke_attested :
  t -> ?readonly:bool -> string -> (rq_id:int -> string -> string option -> unit) -> unit
(** {!invoke_certified} plus the request id the call was assigned —
    everything a cross-shard coordinator must forward for another
    replica group to verify the vote ({!Certificate.verify} binds
    (client, rq_id, result)). *)

val completed : t -> int

val tentative_completed : t -> int
(** Of {!completed}, how many were accepted on a 2f+1 tentative-reply
    quorum rather than an f+1 stable one — the read-mix benchmark's
    tentative-vs-stable split. *)

val retransmissions : t -> int
val latency_stats : t -> Util.Stats.t
