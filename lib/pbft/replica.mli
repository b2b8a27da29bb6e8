(** A PBFT replica: the complete server-side state machine.

    Implements normal-case three-phase agreement with request batching
    under the congestion window, the big-request and read-only
    optimizations, tentative execution, checkpointing with Merkle-tree
    state snapshots, state transfer for lagging replicas, view changes,
    MAC-authenticator session management (with the transient-key recovery
    stall of §2.3), the non-determinism upcalls of §2.5, and the paper's
    dynamic client membership extension (§3.1).

    A replica is driven entirely by the simulation: datagrams arrive via
    the network, work is charged to the replica's virtual CPU, and timers
    run on the engine. Restarting a replica (for the recovery
    experiments) discards all transient state — agreement log, session
    keys, memory state region — and keeps only what the deployment's
    service made durable. *)

open Types

(** A-priori deployment knowledge every node ships with: replica
    verifiers, the replica-group secret used for stateless join
    challenges, and (in static mode) the client table. *)
type registry = {
  reg_verifiers : Crypto.Keychain.verifier array;
  reg_group_secret : Crypto.Mac.key;
  reg_static_clients : (client_id * int * string) list;  (** (client, addr, pubkey) *)
}

type t

val create :
  cfg:Config.t ->
  costs:Costmodel.t ->
  engine:Simnet.Engine.t ->
  net:Simnet.Net.t ->
  id:replica_id ->
  signer:Crypto.Keychain.signer ->
  registry:registry ->
  service:Service.t ->
  ?threshold:Crypto.Threshold.public * Crypto.Threshold.share ->
  unit ->
  t
(** Construct and register the replica on the network. When a threshold
    share is supplied, every reply carries a partial signature that
    clients combine into a reply certificate (§3.3.1, {!Certificate}). *)

val id : t -> replica_id
val view : t -> view
val is_primary : t -> bool
[@@detlint.allow unused_export "the protocol tests check who leads a view"]
val last_executed : t -> seqno
val stable_checkpoint : t -> seqno
val executed_requests : t -> int
(** Requests this incarnation executed. *)

val transfer_pages_fetched : t -> int
(** Distinct pages this incarnation's completed transfers pulled over
    the wire — the Merkle-diff cost. *)

val transfer_pages_full : t -> int
(** Pages a full (every-leaf) transfer would have pulled for the same
    completed transfers — the baseline the Merkle diff is saving
    against. *)

val view_change_attempts : t -> int
(** Consecutive view changes started without execution progress — the
    exponent of the current view-change timeout backoff; 0 after any
    request commits. *)

(** {1 Telemetry}

    Each incarnation registers its counters on the engine's
    {!Util.Metrics} registry at creation, under its replica id: layer
    ["pbft"] — [executed_requests], [view_changes], [demotions] (fell
    behind a stable checkpoint, §2.4), [demotion_transfers] and
    [rejoin_transfers] (state transfers by cause), [auth_failures]
    (messages dropped for failed or unavailable authentication, §2.3),
    [nondet_rejects] (§2.5), [speculative_executions] (batches executed
    before their commit certificate), [rollbacks] (view changes that
    undid them), [ro_cache_evictions], [bodies_aged_out] and
    [aged_out_unanswered] (of those, bodies whose request was still
    waiting or in flight); layer ["statemgr"] — [checkpoint_count]
    (genesis and post-transfer snapshots included), [undo_snapshots],
    [transfer_pages_fetched] and [transfer_pages_full]. The getters
    above read this incarnation's own cells. *)

(** Sizes of the tables that grow with requests. With the stable
    checkpoint advancing they stay within a few log windows of work,
    however long the run. *)
type retained = {
  bodies : int;  (** big-request bodies held *)
  body_arrivals : int;  (** age-out FIFO entries, stale ones included *)
  pending : int;  (** requests queued by a primary, not yet proposed *)
  in_flight : int;  (** (client, id) keys queued, ordered or executing read-only *)
  waiting : int;  (** requests on the view-change watchdog's ledger *)
  entry_requests : int;  (** outstanding §2.5 log-entry fetches *)
  body_requests : int;  (** outstanding §2.4 body fetches *)
  log_slots : int;  (** agreement-log slots *)
  ckpt_votes : int;  (** checkpoint sequence numbers with a vote set *)
}

val retained : t -> retained

val retained_fields : retained -> (string * int) list
(** The counts with their names, in declaration order. *)

val holds_body : t -> Types.digest -> bool
[@@detlint.allow unused_export "the memory-bound tests check body retirement"]
(** Whether the body with this request digest is held. *)

val signer : t -> Crypto.Keychain.signer
[@@detlint.allow unused_export "fault-injection tests forge messages under a replica's key"]
(** This replica's signing key. Exposed for fault injection: a Byzantine
    replica forges messages that carry its legitimate signature. *)

val authenticate_to : t -> dst:int -> Message.sealer
(** How a message to [dst] alone is sealed: in MAC mode one tag under
    the session key for [dst] (the one this replica chose for a peer
    replica, the one a client sent in its [Session_key]), otherwise, or
    while no key is known, a signature. Exposed for {!Adversary}, which
    must re-authenticate messages it rewrites in flight. *)

val set_record_journal : t -> bool -> unit
(** Enable the committed-execution journal (off by default — benign runs
    pay nothing for it). *)

val exec_journal : t -> (seqno * Types.digest) list
(** Committed executions in sequence order, as [(seq, batch_digest)]
    pairs. Entries skipped over by a state transfer leave gaps. The fault
    harness compares journals pairwise across correct replicas: agreement
    on every common sequence number is the safety property. *)

val cpu : t -> Simnet.Cpu.t
val pages : t -> Statemgr.Pages.t
val membership : t -> Membership.t

val install_session_key : t -> addr:int -> Crypto.Mac.key -> unit
(** Out-of-band session-key installation used by static-mode setup; the
    in-band path is the Session_key message. *)

val shutdown : t -> unit
(** Stop the replica: unregister from the network and cancel timers. The
    object becomes inert (messages to its address vanish, like UDP). *)

val crash : t -> unit
(** Crash the replica: shut it down, persisting only the newest stable
    checkpoint as the simulated disk image. All volatile state — log,
    quorum tallies, session keys, caches, speculative state — is lost;
    a later {!restart} reloads the disk image. *)

val restart : t -> t
(** Build a fresh replica with the same identity and configuration but
    empty transient state, re-registered on the network — the paper's
    stop-and-restart recovery experiment (§2.3). State reloads from the
    disk checkpoint persisted by {!crash} (if any) and catches the rest
    up with a Merkle-diff state transfer that fetches only pages that
    diverged after the crash; with [Config.rejoin_key_refresh] the
    replica also re-establishes session keys immediately instead of
    stalling on the lost authenticator vector. *)

val is_recovering : t -> bool
[@@detlint.allow unused_export "the crash-restart tests check the recovery flag"]
val recovery_completed_at : t -> float option
(** Virtual time at which the post-restart state transfer finished and
    normal execution resumed; [None] if never restarted / not yet done. *)
