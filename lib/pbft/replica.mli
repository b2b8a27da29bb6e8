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
  reg_group_secret : string;
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
val view_changes : t -> int

val state_transfers : t -> int
(** All state transfers started, demotion and rejoin alike (the sum of
    {!demotion_transfers} and {!rejoin_transfers}). *)

val demotion_transfers : t -> int
(** Transfers started because this (running) replica fell behind a
    stable checkpoint (§2.4). *)

val rejoin_transfers : t -> int
(** Transfers started by the crash/restart rejoin path, including ring
    rotations past peers that were not ahead of the disk image. *)

val transfer_pages_fetched : t -> int
(** Distinct pages actually pulled over the wire by completed transfers —
    the Merkle-diff cost. *)

val transfer_pages_full : t -> int
(** Pages a full (every-leaf) transfer would have pulled for the same
    completed transfers — the baseline the Merkle diff is saving
    against. *)

val auth_failures : t -> int
(** Messages dropped for failed/unavailable authentication — nonzero on a
    recovering replica before the key rebroadcast arrives (§2.3). *)

val nondet_rejects : t -> int
(** Pre-prepares / replayed entries rejected by non-determinism
    validation (§2.5). *)

val checkpoints_taken : t -> int
(** Checkpoint snapshots taken so far, including the genesis checkpoint
    and the snapshot installed after a completed state transfer. *)

val undo_snapshots : t -> int
(** Copy-on-write undo snapshots taken to guard tentative execution. *)

val demotions : t -> int
(** Times this replica fell behind a stable checkpoint and had to demote
    itself into a state transfer to rejoin (the §2.4 packet-loss
    pathology: a lagging replica is effectively out of the group until
    the next checkpoint). *)

val ro_reply_evictions : t -> int
(** Read-only reply-cache entries displaced by LRU capacity pressure
    (the cache is bounded at [Config.max_clients]; session termination
    drops entries without counting here). *)

val speculative_execs : t -> int
(** Batches executed before their commit certificate landed: tentative
    executions in serial mode, pipelined speculation when
    [Config.pipeline_depth > 1]. *)

val rollbacks : t -> int
(** Rollbacks that actually undid speculative executions (a view change
    or new-view installation struck while [last_executed] was ahead of
    the committed prefix). *)

val view_change_attempts : t -> int
(** Consecutive view changes started without execution progress — the
    exponent of the current view-change timeout backoff; 0 after any
    request commits. *)

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

val bodies_aged_out : t -> int
(** Bodies dropped by the age bound: no live log entry referenced them
    and this replica executed [Config.log_window] sequence numbers since
    they last arrived (retransmissions of answered requests, requests a
    deposed primary never proposed, requests of clients that left). *)

val aged_out_unanswered : t -> int
(** Of {!bodies_aged_out}, the bodies whose request was still on this
    replica's waiting ledger or in flight. Nonzero means the age bound
    was too short for the load and a later proposal may stall on the
    §2.4 missing-body path. *)

val holds_body : t -> Types.digest -> bool
[@@detlint.allow unused_export "the memory-bound tests check body retirement"]
(** Whether the body with this request digest is held. *)

val signer : t -> Crypto.Keychain.signer
[@@detlint.allow unused_export "fault-injection tests forge messages under a replica's key"]
(** This replica's signing key. Exposed for fault injection: a Byzantine
    replica forges messages that carry its legitimate signature. *)

val authenticate_to : t -> dst:int -> string -> Message.auth
(** Authentication for payload bytes sent to [dst] alone: a MAC under the
    session key this replica chose for [dst] once established, otherwise
    a signature. Exposed for {!Adversary}, which must re-authenticate
    messages it rewrites in flight. *)

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
