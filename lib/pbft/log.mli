(** The agreement log: per-sequence-number protocol state between the low
    and high watermarks, plus the per-client reply cache (§2.1). *)

open Types

type entry = {
  seq : seqno;
  mutable pp_view : view;  (** view of the accepted pre-prepare *)
  mutable batch : Message.batch_item list option;  (** None until pre-prepared *)
  mutable nondet : string;
  mutable batch_digest : digest;
  mutable prepares : (replica_id, unit) Hashtbl.t;
  mutable commits : (replica_id, unit) Hashtbl.t;
  mutable prepared : bool;
  mutable committed : bool;
  mutable executed : bool;
  mutable tentatively_executed : bool;
  mutable missing_bodies : digest list;
      (** big-request digests in the batch whose bodies this replica does
          not hold — the §2.4 stall condition *)
  mutable pending_replies : (Message.request * string * float) list;
      (** pipelined speculation: (request, result, exec timestamp) buffered
          until the commit certificate lands, then flushed to clients;
          always [] in serial mode and cleared on rollback *)
}

type t

val create : unit -> t

val low_watermark : t -> seqno

(** What a watermark advance retired, for the replica's request-body
    table. *)
type retired = {
  orphaned : digest list;
      (** big-request digests named by a retired entry and by no entry
          above the mark, in slot order: no live slot can ask for their
          bodies again *)
  still_live : digest -> bool;
      (** whether some entry above the mark names the digest (a
          re-proposal keeps its body alive) *)
}

val set_low_watermark : t -> seqno -> retired
(** Garbage-collects entries at or below the new mark, in the same pass
    that collects the digests the surviving entries reference. *)

val length : t -> int
(** Slots currently held, live or not yet garbage-collected. *)

val entry : t -> seqno -> entry
(** Get-or-create the log slot. *)

val find : t -> seqno -> entry option

val record_prepare : entry -> replica_id -> unit
[@@trust.sink "agreement-log prepare-vote increment"]

val record_commit : entry -> replica_id -> unit
[@@trust.sink "agreement-log commit-vote increment"]

val reset_votes : entry -> unit
(** Clear the prepare/commit vote sets and certificates — used when a
    later view's pre-prepare supersedes a batch that was accepted but
    never prepared (the old votes certified the old digest). *)

val prepare_count : entry -> int
val commit_count : entry -> int

val entries_between : t -> lo:seqno -> hi:seqno -> entry list
(** Existing entries with [lo < seq <= hi], ascending. *)

val prepared_above : t -> seqno -> entry list
(** Entries above the given sequence number that reached prepared status
    (for view-change messages). *)

(** {2 Reply cache} *)

type cached_reply = {
  cr_id : int;  (** request id the reply answers *)
  cr_result : string;
  cr_view : view;
  cr_tentative : bool;
  cr_timestamp : float;  (** primary-clock execution time (§3.1 staleness) *)
  cr_speculative : bool;
      (** cached by a speculative execution that has not committed; such a
          reply is never resent on retransmission until the commit flush
          clears the flag (speculation must not leak to clients) *)
}

val cached_reply : t -> client_id -> cached_reply option

val cache_reply : t -> client_id -> cached_reply -> unit
[@@trust.sink "per-client reply-cache insert"]

val drop_client : t -> client_id -> unit
[@@trust.sink "reply-cache removal"]
