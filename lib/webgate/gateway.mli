(** Web-application support (§3.3.3).

    The paper's end goal is a browser-hosted client: "this communication
    cannot be carried over UDP... higher level protocols, such as
    WebSocket, and structures like JSON or XML need to be used. Support
    for these technologies needs to be incorporated in the middleware."
    This library incorporates them, with no centralized component:

    - every replica hosts a {!Bridge} — a WebSocket/JSON endpoint
      co-located with the replica that translates JSON frames into
      native protocol datagrams (and exists per replica, unlike Thema's
      centralized agent, which the authors reject);
    - a browser is the one PBFT client, {!Pbft.Client}, created with
      {!json_transport}: it speaks only JSON, signs with the
      browser-available public-key signer it is given (instead of
      Rabin), MACs with session keys it keeps and rebroadcasts, joins
      dynamically, and verifies and tallies replies with the very code
      the native client uses. There is one client with two transports.

    One codec, {!frame_of_message} / {!message_of_frame}, serves both
    directions. A frame carries the message's auth field ([sig] or
    [mac]) next to its payload fields, so the bridge rebuilds the exact
    native message and replicas verify what the browser signed or MACed.

    Simulation note: the browser→replica direction crosses the wire as
    JSON frames addressed to the bridge; the replica→browser direction is
    delivered to the browser's network address and converted to JSON at
    the browser boundary, charging the same conversion cost the bridge
    would (DESIGN.md lists this as a modelling shortcut). *)

open Pbft.Types

val bridge_addr : replica_id -> int
[@@detlint.allow unused_export "the JSON bridge tests address the bridge"]
(** Network address of the JSON endpoint co-located with a replica. *)

val frame_of_message : Pbft.Message.t -> Json.t option
[@@detlint.allow unused_export "the JSON bridge codec round-trip property"]
(** The JSON frame for a message a client sends or receives (request,
    join request/response, leave, session key; reply, join challenge,
    join reply), or [None] for replica-to-replica traffic. *)

val message_of_frame : Json.t -> Pbft.Message.t option
[@@trust.source "browser JSON frame decoded into a protocol message"]
[@@detlint.allow unused_export "the JSON bridge codec round-trip property"]
(** Inverse of {!frame_of_message}; [None] for any frame of unknown
    type, missing or mistyped field, fractional or out-of-range number,
    or negative id or address. *)

val json_transport : Pbft.Transport.t
(** Frames to {!bridge_addr}, charging JSON printing per copy sent and
    the reverse bridge's conversion per reply received. *)

module Bridge : sig
  type t

  val attach : engine:Simnet.Engine.t -> net:Simnet.Net.t -> replica:replica_id -> t
  (** Listen on [bridge_addr replica] and forward translated frames to the
      co-located replica. *)

  val frames_translated : t -> int
  val rejected : t -> int
  (** Frames dropped as malformed JSON or not a well-formed message
      frame. Every frame received is counted in exactly one of
      {!frames_translated} and {!rejected}. *)

end
