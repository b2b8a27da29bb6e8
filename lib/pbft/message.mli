(** PBFT protocol messages and their wire encodings.

    The set covers the original protocol (request, the three agreement
    phases, reply, checkpoint, view-change/new-view), state transfer, the
    session-key establishment that underlies MAC authenticators, and the
    paper's §3.1 dynamic-membership extension (two-phase Join with
    challenge–response, Leave). Encoded sizes are what the network model
    charges, so every field that exists on the PBFT wire exists here. *)

open Types

(** How a message is authenticated (§2.1): a public-key signature, or a
    vector of per-replica MACs (an authenticator). *)
type auth =
  | No_auth
  | Signed of string
  | Authenticated of Crypto.Authenticator.t

type request = {
  rq_client : client_id;
  rq_id : int;  (** per-client monotonically increasing request number *)
  rq_op : string;  (** opaque operation for the service upcall *)
  rq_readonly : bool;
  rq_timestamp : float;  (** primary-clock timestamp recorded per session (§3.1) *)
}

(** A pre-prepare entry: the full request inline, or — for big requests,
    whose body travelled client→replicas directly — just its digest. *)
type batch_item =
  | Full of request
  | Digest_of of { bd_client : client_id; bd_id : int; bd_digest : digest; bd_readonly : bool }

type prepared_info = {
  pi_view : view;
  pi_seq : seqno;
  pi_digest : digest;
  pi_batch : batch_item list;
}

type payload =
  | Request_msg of request
  | Pre_prepare of { pp_view : view; pp_seq : seqno; pp_batch : batch_item list; pp_nondet : string }
  | Prepare of { p_view : view; p_seq : seqno; p_digest : digest; p_replica : replica_id }
  | Commit of { c_view : view; c_seq : seqno; c_digest : digest; c_replica : replica_id }
  | Reply of {
      r_view : view;
      r_client : client_id;
      r_id : int;
      r_replica : replica_id;
      r_result : string;
      r_tentative : bool;
      r_partial : string option;
          (** §3.3.1 extension: this replica's threshold partial signature
              over the reply, combinable by the client into a service
              signature no single replica could forge *)
    }
  | Checkpoint_msg of { ck_seq : seqno; ck_digest : digest; ck_replica : replica_id }
  | View_change of {
      vc_new_view : view;
      vc_stable_seq : seqno;
      vc_stable_digest : digest;
      vc_prepared : prepared_info list;
      vc_replica : replica_id;
    }
  | New_view of {
      nv_view : view;
      nv_view_change_digests : (replica_id * digest) list;
      nv_pre_prepares : (seqno * batch_item list) list;
    }
  | Session_key of { sk_sender : int; sk_target : replica_id; sk_key_box : string }
      (** sender (client or replica address) refreshes the MAC session key
          it shares with [sk_target]; the key travels "encrypted" under
          the target's public key (boxed). Periodic blind rebroadcast of
          these is what eventually unblocks a recovering replica (§2.3). *)
  | Join_request of { j_addr : int; j_pubkey : string; j_nonce : string }
  | Join_challenge of { jc_replica : replica_id; jc_addr : int; jc_nonce : string }
  | Join_response of { jr_addr : int; jr_proof : string; jr_pubkey : string; jr_idbuf : string }
  | Join_reply of { jl_replica : replica_id; jl_client : client_id; jl_ok : bool }
  | Leave_msg of { lv_client : client_id }
  | Fetch_meta of { fm_seq : seqno; fm_replica : replica_id }
      (** lagging replica asks for the page digests of a checkpoint *)
  | State_meta of { sm_seq : seqno; sm_replica : replica_id; sm_leaves : digest list }
  | Fetch_pages of { fp_seq : seqno; fp_pages : int list; fp_replica : replica_id }
  | State_pages of { sp_seq : seqno; sp_replica : replica_id; sp_pages : (int * string) list }
  | Fetch_body of { fb_digest : digest; fb_replica : replica_id }
      (** ask a peer for a big-request body known only by digest *)
  | Body of { b_request : request }
  | Fetch_entry of { fe_seq : seqno; fe_replica : replica_id }
      (** ask a peer to replay a logged pre-prepare (gap fill) *)
  | Entry of { en_seq : seqno; en_view : view; en_batch : batch_item list; en_nondet : string }
  | Status of { st_replica : replica_id; st_view : view; st_last_exec : seqno }
      (** periodic liveness gossip: peers that are ahead respond by
          retransmitting the protocol messages the sender is missing —
          the lost-message recovery of the PBFT implementation *)
  | Key_request of { kq_replica : replica_id }
      (** a restarted replica lost the session keys its peers chose for it
          (§2.3); this signed request asks each peer to re-send its
          {!Session_key} immediately instead of stalling until the next
          periodic rebroadcast *)

type t = { payload : payload; auth : auth }

(** A message with its wire frame (payload length and bytes, then auth). Sent as the
    datagram's {!Simnet.Net.note}, which arrives only with the sender's exact bytes, it
    spares the receiver the decode and the MAC recomputation. *)
type framed = {
  msg : t;
  frame : string;  (** [msg]'s wire bytes *)
  pb_pos : int;
  pb_len : int;
      (** what [msg]'s signature or MACs cover: the [pb_len] payload
          bytes of [frame] from [pb_pos], a slice, never a copy *)
  mac_keys : (int * Crypto.Mac.key) list;
      (** the keys the sender computed [msg]'s authenticator with, for
          {!Crypto.Authenticator.check}'s [sender_keys]; [[]] when
          unknown (decoded off the wire) or not MAC-authenticated *)
}

type Simnet.Net.note += Framed of framed

(** A signature, or an authenticator with one tag per (replica, key). *)
type sealer = Sign of Crypto.Keychain.signer | Macs of (int * Crypto.Mac.key) list

val seal : payload -> sealer -> framed
(** The frame, written once into one buffer of its exact size: the
    payload, then the auth computed over that slice ([mac_keys] are the
    [Macs] keys). *)

val framed_of : t -> framed
(** As {!seal} writes it, for a message whose auth is already known. *)

val encode : t -> string

val decode : string -> t option
[@@trust.source "protocol message decoded off the wire"]
(** [None] on malformed input (treated as an authentication failure).
    A decoded message is *untrusted* until {!auth} has been verified —
    the trustlint source annotation enforces that no replica/client
    state is touched before the MAC/signature check. *)

val decode_framed : string -> framed option
[@@trust.source "protocol frame decoded off the wire"]
(** {!decode}, keeping the frame; the payload is decoded in place. *)

val received : Simnet.Net.t -> string -> framed option
[@@trust.source "protocol message delivered off the wire, from the sender's note or decoded"]
(** Inside a receive handler of that net: the sender's {!Framed} note if
    the datagram has one, else the bytes decoded as by {!decode_framed}. *)

val digest_of_payload : payload -> digest
val request_digest : request -> digest
(** Digest identifying a request (used in pre-prepares for big requests). *)

val batch_item_digest : batch_item -> digest
val batch_item_client_id : batch_item -> client_id * int
val batch_digest : batch_item list -> digest
(** Digest over the whole batch — what prepares and commits certify. *)

val label : payload -> string
(** Short kind name for traces ("pre-prepare", "join-request", ...). *)

val describe : payload -> string
(** One-line detail (view/seq numbers) for traces. *)
