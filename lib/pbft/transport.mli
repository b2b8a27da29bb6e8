(** How a {!Client} reaches the replicas.

    A transport does only the three jobs that differ between wire
    formats; authentication, the reply quorum, retransmission, join and
    session keys live once, in {!Client}, above it. The native datagram
    transport below is the default; [Webgate.Gateway.json_transport]
    carries the same messages as JSON frames through per-replica
    bridges (§3.3.3). *)

open Types

type t = {
  address : replica_id -> int;  (** network address a frame for replica [r] is sent to *)
  frame : Message.framed -> string * float;
      (** the wire form of an outbound message, sealed, and the CPU
          charge for each copy sent *)
  unframe : (Simnet.Net.t -> string -> Message.framed option * float)
    [@trust.source "client-bound message unframed off the wire"];
      (** the message an inbound wire carries ([None] if malformed), read
          in the receive handler of the net it arrived on, and the CPU
          charge for receiving it; untrusted until its auth verifies *)
}

val datagram : Costmodel.t -> t
(** The native binary protocol over UDP: the sealed frame itself, once
    per multicast, {!Message.received} on receive (the sender's note,
    or a decode), and the cost model's datagram-stack charges. *)
