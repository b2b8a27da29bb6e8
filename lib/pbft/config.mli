(** Protocol and library configuration.

    MAC authenticators, all-requests-big (a big-request threshold of
    0), batching and static-vs-dynamic client management span exactly
    the configuration matrix of the paper's Table 1; the remaining
    fields are the tunables the PBFT code base exposes (checkpoint
    interval, watermark window, congestion window, timers). *)

type nondet_validation =
  | No_validation  (** trust the primary's non-deterministic data *)
  | Delta of float
      (** accept iff |local clock − proposed timestamp| ≤ delta — the
          scheme whose interaction with recovery replay §2.5 dissects *)
  | Delta_skip_on_recovery of float
      (** same, but validation is skipped for requests replayed during
          recovery — the fix §2.5 proposes *)

type t = {
  f : int;  (** tolerated Byzantine faults *)
  n : int;  (** replica count, 3f + 1 *)
  use_macs : bool;  (** MAC authenticators instead of signatures *)
  big_request_threshold : int;
      (** bytes above which a request is big (§2.1): its body travels
          outside the pre-prepare, which names it by digest. 0 makes
          every request big, an empty one included (all-big) *)
  batching : bool;
  congestion_window : int;
      (** max requests received-but-not-executed at the primary before it
          withholds pre-prepares to batch (§2.1) *)
  batch_delay : float;
      (** how long the primary lingers after the window frees before
          issuing the next pre-prepare, gathering straggler requests into
          the batch (models the catch-up-on-execution aggregation of
          §2.1); 0 disables *)
  dynamic_clients : bool;  (** the paper's §3.1 extension *)
  max_clients : int;  (** node-table capacity *)
  session_stale_threshold : float;  (** §3.1 stale-session cleanup *)
  checkpoint_interval : int;  (** executions per checkpoint *)
  log_window : int;  (** high − low watermark distance *)
  client_timeout : float;  (** client retransmission period *)
  view_change_timeout : float;
      (** base watchdog delay before a backup starts a view change; the
          effective timeout doubles per consecutive failed view change
          (PBFT's backoff) and resets on execution progress *)
  status_period : float;
      (** period of the status gossip that drives retransmission of lost
          protocol messages; 0 disables (a faithful rendering of a PBFT
          build without its retransmission machinery) *)
  authenticator_rebroadcast : float;
      (** period of the blind session-key rebroadcast that unblocks a
          recovering replica (§2.3) *)
  fetch_missing_bodies : bool;
      (** remedy for §2.4: a replica missing a big-request body asks its
          peers for it instead of stalling until the next checkpoint.
          Off by default — the paper's PBFT stalls. *)
  fetch_missing_entries : bool;
      (** remedy for §2.5/§2.4: a replica that sees f+1 commits for a
          sequence it has no pre-prepare for fetches the entry (with its
          original non-deterministic data) from a peer — the log-replay
          path whose interaction with delta validation §2.5 dissects.
          Off by default. *)
  nondet : nondet_validation;
  pipeline_depth : int;
      (** how many congestion windows of batches may be in flight through
          the three agreement phases at once. 1 (default) is the paper's
          serial protocol; > 1 lets the primary pre-prepare batch n+1..n+k
          while n is still in prepare/commit, and switches replicas to
          speculative execution: prepared batches run under a COW undo
          snapshot, with replies, checkpoints and the exec journal
          withheld until the commit certificate lands (rolled back on
          view change) *)
  cores : int;
      (** virtual CPU cores per replica (default 1). MAC
          generation/verification fan-out and Merkle leaf hashing are
          charged as per-piece work: one core runs the pieces back to
          back, more cores overlap them *)
  rejoin_key_refresh : bool;
      (** remedy for §2.3: a restarted replica multicasts a signed
          {!Message.Key_request} so peers re-send their session keys
          immediately, instead of recovery stalling until the next blind
          [authenticator_rebroadcast]. Off by default — the paper's PBFT
          stalls. *)
  key_refresh_period : float;
      (** period of proactive session-key refresh on the virtual clock:
          each replica re-derives its outbound MAC keys for a new epoch
          and rebroadcasts them (bounding how long a stolen key is
          useful). 0 (default) disables; the previous epoch's key is kept
          verifiable so in-flight authenticators survive the rollover *)
}

val max_batch_bytes : int
(** Datagram budget for one pre-prepare: 8 KiB. *)

val join_request_timeout : float
(** Retransmission period for the two-phase join handshake (§3.1): 1 s.
    Join traffic is signed and pre-agreement, so it runs on its own timer
    rather than [client_timeout]. *)

val is_big_request : t -> string -> bool
(** [is_big_request cfg op]: whether a request carrying [op] is big
    under [cfg.big_request_threshold]. *)

val default : f:int -> t
(** Castro's preferred configuration: MACs, all-big, batching, tentative
    execution — the first row of Table 1. *)

val robust : f:int -> t
[@@detlint.allow unused_export "the most robust configuration of the paper's 4.1; the signature-mode test runs it"]
(** The "most robust" configuration of §4.1: signatures instead of MACs,
    big-request handling off. *)

val validate : t -> (unit, string) result
(** Check internal consistency (n = 3f+1, positive intervals, ...). *)
