open Types

type t = {
  address : replica_id -> int;
  frame : Message.framed -> string * float;
  unframe : Simnet.Net.t -> string -> Message.framed option * float;
}

let datagram costs =
  {
    address = (fun r -> r);
    frame =
      (fun (f : Message.framed) -> (f.frame, Costmodel.send costs (String.length f.frame)));
    unframe =
      (fun net wire -> (Message.received net wire, Costmodel.recv costs (String.length wire)));
  }
