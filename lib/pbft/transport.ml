open Types

type t = {
  address : replica_id -> int;
  frame : payload_bytes:string -> Message.t -> string * float;
  unframe : Simnet.Net.t -> string -> Message.framed option * float;
}

let datagram costs =
  {
    address = (fun r -> r);
    frame =
      (fun ~payload_bytes (msg : Message.t) ->
        let wire = Message.encode_wire ~payload_bytes msg.auth in
        (wire, Costmodel.send costs (String.length wire)));
    unframe =
      (fun net wire -> (Message.received net wire, Costmodel.recv costs (String.length wire)));
  }
