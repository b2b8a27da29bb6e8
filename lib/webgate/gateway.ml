open Pbft.Types
module M = Pbft.Message

let bridge_addr replica = 5000 + replica

(* JSON conversion costs: parsing/printing text is pricier than the
   binary codec; charged wherever a frame crosses the seam. *)
let json_cost bytes = 15e-6 +. (40e-9 *. float_of_int bytes)

(* --- message <-> JSON frame --- *)

let num i = Json.Num (float_of_int i)

let payload_fields : M.payload -> (string * (string * Json.t) list) option = function
  | M.Request_msg rq ->
    Some
      ( "request",
        [
          ("client", num rq.rq_client);
          ("id", num rq.rq_id);
          ("op", Json.of_bytes rq.rq_op);
          ("readonly", Json.Bool rq.rq_readonly);
          ("ts", Json.Num rq.rq_timestamp);
        ] )
  | M.Join_request j ->
    Some
      ( "join-request",
        [
          ("addr", num j.j_addr);
          ("pubkey", Json.of_bytes j.j_pubkey);
          ("nonce", Json.of_bytes j.j_nonce);
        ] )
  | M.Join_response jr ->
    Some
      ( "join-response",
        [
          ("addr", num jr.jr_addr);
          ("proof", Json.of_bytes jr.jr_proof);
          ("pubkey", Json.of_bytes jr.jr_pubkey);
          ("idbuf", Json.of_bytes jr.jr_idbuf);
        ] )
  | M.Leave_msg l -> Some ("leave", [ ("client", num l.lv_client) ])
  | M.Session_key sk ->
    Some
      ( "session-key",
        [
          ("sender", num sk.sk_sender);
          ("target", num sk.sk_target);
          ("key", Json.of_bytes sk.sk_key_box);
        ] )
  | M.Reply r ->
    Some
      ( "reply",
        [
          ("view", num r.r_view);
          ("client", num r.r_client);
          ("id", num r.r_id);
          ("replica", num r.r_replica);
          ("result", Json.of_bytes r.r_result);
          ("tentative", Json.Bool r.r_tentative);
          ("partial", match r.r_partial with Some p -> Json.of_bytes p | None -> Json.Null);
        ] )
  | M.Join_challenge jc ->
    Some
      ( "join-challenge",
        [
          ("replica", num jc.jc_replica);
          ("addr", num jc.jc_addr);
          ("nonce", Json.of_bytes jc.jc_nonce);
        ] )
  | M.Join_reply jl ->
    Some
      ( "join-reply",
        [
          ("replica", num jl.jl_replica); ("client", num jl.jl_client); ("ok", Json.Bool jl.jl_ok);
        ] )
  | _ -> None

let frame_of_message { M.payload; auth } =
  Option.map
    (fun (kind, fields) ->
      let auth =
        match auth with
        | M.No_auth -> []
        | M.Signed s -> [ ("sig", Json.of_bytes s) ]
        | M.Authenticated a ->
          let tag (r, tag) = Json.Arr [ num r; Json.of_bytes tag ] in
          [ ("mac", Json.Arr (List.map tag a.tags)) ]
      in
      Json.Obj ((("type", Json.Str kind) :: fields) @ auth))
    (payload_fields payload)

let message_of_frame_exn j =
  let field k = Json.member k j in
  (* Ids and addresses are non-negative on the native wire. *)
  let nat v =
    match Json.to_int_exn v with
    | i when i >= 0 -> i
    | _ -> raise (Json.Parse_error "expected a non-negative integer")
  in
  let int k = nat (field k) and bytes k = Json.bytes_exn (field k) in
  let bool k = Json.to_bool_exn (field k) in
  let payload =
    match Json.to_string_exn (field "type") with
    | "request" ->
      M.Request_msg
        {
          rq_client = int "client";
          rq_id = int "id";
          rq_op = bytes "op";
          rq_readonly = bool "readonly";
          rq_timestamp = Json.to_float_exn (field "ts");
        }
    | "join-request" ->
      M.Join_request { j_addr = int "addr"; j_pubkey = bytes "pubkey"; j_nonce = bytes "nonce" }
    | "join-response" ->
      M.Join_response
        {
          jr_addr = int "addr";
          jr_proof = bytes "proof";
          jr_pubkey = bytes "pubkey";
          jr_idbuf = bytes "idbuf";
        }
    | "leave" -> M.Leave_msg { lv_client = int "client" }
    | "session-key" ->
      M.Session_key { sk_sender = int "sender"; sk_target = int "target"; sk_key_box = bytes "key" }
    | "reply" ->
      M.Reply
        {
          r_view = int "view";
          r_client = int "client";
          r_id = int "id";
          r_replica = int "replica";
          r_result = bytes "result";
          r_tentative = bool "tentative";
          r_partial = (match field "partial" with Json.Null -> None | p -> Some (Json.bytes_exn p));
        }
    | "join-challenge" ->
      M.Join_challenge { jc_replica = int "replica"; jc_addr = int "addr"; jc_nonce = bytes "nonce" }
    | "join-reply" ->
      M.Join_reply { jl_replica = int "replica"; jl_client = int "client"; jl_ok = bool "ok" }
    | other -> raise (Json.Parse_error ("unknown frame type " ^ other))
  in
  let tag = function
    | Json.Arr [ r; tag ] -> (nat r, Json.bytes_exn tag)
    | _ -> raise (Json.Parse_error "expected [replica, tag]")
  in
  let auth =
    match (Json.member_opt "sig" j, Json.member_opt "mac" j) with
    | Some s, None -> M.Signed (Json.bytes_exn s)
    | None, Some (Json.Arr tags) -> M.Authenticated { tags = List.map tag tags }
    | None, None -> M.No_auth
    | _ -> raise (Json.Parse_error "expected one of sig / mac")
  in
  { M.payload; auth }

let message_of_frame j =
  match message_of_frame_exn j with
  | msg -> Some msg
  | exception (Json.Parse_error _ | Not_found) -> None

let decode_frame text =
  match Json.parse text with
  | exception Json.Parse_error _ -> None
  | j -> message_of_frame j

(* --- the JSON transport --- *)

let json_transport =
  {
    Pbft.Transport.address = bridge_addr;
    frame =
      (fun (f : M.framed) ->
        match frame_of_message f.msg with
        | Some j ->
          let text = Json.print j in
          (text, json_cost (String.length text))
        | None -> invalid_arg ("Gateway.json_transport: no JSON frame for " ^ M.label f.msg.payload));
    unframe =
      (fun _net wire ->
        (* The reverse bridge: replicas answer in the native format, and
           the translation to JSON is charged here, at the browser
           boundary, as the replica-side endpoint would pay it. The
           browser holds only the JSON, so it reads no delivery note. *)
        match Option.bind (M.decode wire) frame_of_message with
        | None -> (None, 0.0)
        | Some j ->
          let text = Json.print j in
          (Option.map M.framed_of (decode_frame text), json_cost (String.length text)));
  }

(* --- bridge --- *)

module Bridge = struct
  type t = {
    net : Simnet.Net.t;
    cpu : Simnet.Cpu.t;
    replica : replica_id;
    mutable translated : int;
    mutable n_rejected : int;
  }

  let attach ~engine ~net ~replica =
    let t =
      { net; cpu = Simnet.Cpu.create engine; replica; translated = 0; n_rejected = 0 }
    in
    Simnet.Net.register net (bridge_addr replica) (fun ~src frame ->
        Simnet.Cpu.execute t.cpu ~cost:(json_cost (String.length frame)) (fun () ->
            match decode_frame frame with
            | None -> t.n_rejected <- t.n_rejected + 1
            | Some msg ->
              t.translated <- t.translated + 1;
              (* Local hop into the co-located replica, preserving the
                 browser as the datagram source. *)
              Simnet.Net.send t.net ~label:"ws-bridged" ~src ~dst:t.replica (M.encode msg)));
    t

  let frames_translated t = t.translated
  let rejected t = t.n_rejected

end
