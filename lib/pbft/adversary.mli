(** Byzantine replica wrapper for fault injection.

    An adversary wraps one *running, otherwise-correct* replica and makes
    it lie on the wire: its outbound datagrams are rewritten, dropped, or
    supplemented through the {!Simnet.Net} per-link fault hooks, and
    forged messages are injected carrying the replica's legitimate
    credentials (its signing key and MAC session keys — a Byzantine group
    member authenticates its lies perfectly). The wrapped replica keeps
    processing inbound traffic, so it also models the duplicitous member
    that follows the protocol just enough to stay inside the group.

    Everything here is deterministic: mutations are fixed byte rewrites,
    the injector runs on the engine clock, and no RNG is drawn, so
    adversarial runs replay bit-for-bit like benign ones. *)

open Types

type behavior =
  | Equivocate
      (** Conflicting pre-prepares for the same sequence number: odd
          peers receive a batch whose digest differs from what even peers
          got. Neither cohort can reach a 2f+1 prepare certificate, so
          agreement stalls until a view change replaces the liar. *)
  | Mute  (** Silent primary: every outbound datagram is dropped. *)
  | Selective_mute of replica_id list
      (** Drop all traffic to the listed peers only — the partial mute
          that starves a subset of backups while the rest make progress,
          demoting the starved replicas into state transfer (§2.4). *)
  | Corrupt_macs
      (** Flip a byte in the authenticator trailer of every outbound
          wire: peers count authentication failures and treat the replica
          as mute — the paper's §2.3 recovery-stall pathology induced by
          malice instead of lost session keys. *)
  | Garbage_view_change
      (** Periodically inject well-authenticated view-change votes whose
          prepared entries are fabricated (digest matches no batch, view
          numbers out of range). Correct replicas must reject them before
          they can poison a new primary's re-proposal set. *)
  | Mutate_nondet
      (** Rewrite the non-determinism payload of every pre-prepare to a
          syntactically valid blob with an absurd timestamp — the §2.5
          pathology; only a validation policy ({!Config.nondet}) stops
          backups from executing with the primary's lie. *)

type t

val install : net:Simnet.Net.t -> cfg:Config.t -> Replica.t -> behavior -> t
(** Arm the behavior against the given replica. The replica itself is
    not modified; all mutation happens on its network links (plus a
    periodic injector for {!Garbage_view_change}). *)

val uninstall : t -> unit
(** Remove the link hooks and stop the injector; the replica reverts to
    correct behavior. *)

val mutations : t -> int
(** Datagrams dropped/rewritten or votes injected so far — scenario
    assertions use this to prove the fault actually fired. *)

val behavior_name : behavior -> string
