(** BFT-safe two-phase commit hooks for a sharded service, in the style
    of Basil ("Breaking up BFT with ACID"): the coordinator — an
    untrusted sharded front door — drives prepare/commit/abort as
    ordinary *ordered* PBFT operations against each participant group,
    so every phase transition is itself agreed by the shard's replicas.

    A shard protects itself, never trusting the coordinator:

    - {b Prepare} snapshots the service's page region (the PR 2
      copy-on-write snapshots make this near-free), executes the shard's
      script, and votes. A vote is the shard's agreed reply; when the
      deployment deals threshold keys, the f+1-combined reply
      certificate (§3.3.1) makes the vote verifiable by third parties —
      including the *other* shards.
    - {b Commit} carries every participant's vote (shard, client, rq_id,
      result, certificate). The wrapper accepts only if each vote is a
      well-formed prepared vote for this transaction and passes the
      deployment's [verify] check, so a Byzantine coordinator cannot
      commit a transaction some shard never prepared.
    - {b Abort} restores the snapshot page-by-page
      ({!Statemgr.Pages.restore_page}) and is idempotent; aborted ids
      are remembered so a prepare ordered *after* its abort (reordered
      retransmission, Byzantine delay) votes abort instead of wedging
      the shard.
    - {b Expiry}: the prepare carries an agreed deadline. Replicas never
      consult local clocks — the deadline is checked against the agreed
      timestamps of subsequent ordered operations, so a crashed or
      malicious coordinator cannot hold a shard's lock forever, and all
      replicas of the group abort at the same sequence number.

    While a transaction is prepared the shard is single-occupancy:
    other operations get a deterministic ["error:shard-busy"] reply
    (the door quiesces a shard's lanes before involving it in a
    transaction, so this surfaces only under races or misbehavior).
    The wrapper requires serial execution (pipeline depth 1): its
    prepared-transaction state lives outside the page region, so it
    must not be replayed speculatively. *)

type vote = {
  v_shard : int;
  v_client : int;  (** client id of the coordinator's connection into that shard *)
  v_rq_id : int;
  v_result : string;  (** the shard's prepared-vote reply, verbatim *)
  v_cert : string;  (** combined §3.3.1 reply certificate; "" when certs are off *)
}

type op =
  | Prepare of { tx : int; deadline : float; shards : int list; script : string }
  | Commit of { tx : int; votes : vote list }
  | Abort of { tx : int; reason : string }

val encode_op : op -> string

val decode_op : string -> op option
[@@trust.source "2PC operation decoded from an ordered op authored by the untrusted coordinator"]
[@@detlint.allow unused_export "the 2PC codec round-trip tests"]
(** [None] when the string does not carry the 2PC magic or is malformed. *)

val is_twopc_op : string -> bool
[@@detlint.allow unused_export "the 2PC codec tests classify operations"]

val prepared_prefix : int -> string
(** ["2pc-prepared:<tx>:"] — a successful vote is this prefix followed
    by the script's results. *)

val wrap :
  verify:(shard:int -> client:int -> rq_id:int -> result:string -> cert:string -> bool) ->
  Pbft.Service.t ->
  Pbft.Service.t
(** Interpose the 2PC protocol in front of [inner]; non-2PC operations
    pass through untouched whenever no transaction is prepared.
    [verify] validates one vote's certificate (the harness closes over
    the per-group threshold publics); each vote checked at commit costs
    0.1 ms of virtual CPU. The 512 most recent aborted transaction ids
    are remembered, so a reordered prepare for one of them votes abort. *)

(** {2 Process-wide instrumentation} (the {!Statemgr.Pages.bytes_copied}
    idiom: sample before/after a run and subtract) *)

val aborts : unit -> int
(** Abort events that rolled state back via snapshot restore. *)
