open Pbft.Types

let bridge_addr replica = 5000 + replica

(* JSON conversion costs: parsing/printing text is pricier than the
   binary codec; charged wherever a frame crosses the seam. *)
let json_cost bytes = 15e-6 +. (40e-9 *. float_of_int bytes)

(* --- JSON <-> native payloads --- *)

let request_of_json j =
  {
    Pbft.Message.rq_client = Json.to_int_exn (Json.member "client" j);
    rq_id = Json.to_int_exn (Json.member "id" j);
    rq_op = Json.bytes_exn (Json.member "op" j);
    rq_readonly = Json.to_bool_exn (Json.member "readonly" j);
    rq_timestamp = Json.to_float_exn (Json.member "ts" j);
  }

let json_of_request (rq : Pbft.Message.request) =
  Json.Obj
    [
      ("type", Json.Str "request");
      ("client", Json.Num (float_of_int rq.rq_client));
      ("id", Json.Num (float_of_int rq.rq_id));
      ("op", Json.of_bytes rq.rq_op);
      ("readonly", Json.Bool rq.rq_readonly);
      ("ts", Json.Num rq.rq_timestamp);
    ]

(* Decode one browser JSON frame into a native payload. *)
let payload_of_frame j =
  match Json.to_string_exn (Json.member "type" j) with
  | "request" -> Pbft.Message.Request_msg (request_of_json j)
  | "join-request" ->
    Pbft.Message.Join_request
      {
        j_addr = Json.to_int_exn (Json.member "addr" j);
        j_pubkey = Json.bytes_exn (Json.member "pubkey" j);
        j_nonce = Json.to_string_exn (Json.member "nonce" j);
      }
  | "join-response" ->
    Pbft.Message.Join_response
      {
        jr_addr = Json.to_int_exn (Json.member "addr" j);
        jr_proof = Json.bytes_exn (Json.member "proof" j);
        jr_pubkey = Json.bytes_exn (Json.member "pubkey" j);
        jr_idbuf = Json.bytes_exn (Json.member "idbuf" j);
      }
  | "leave" -> Pbft.Message.Leave_msg { lv_client = Json.to_int_exn (Json.member "client" j) }
  | "session-key" ->
    Pbft.Message.Session_key
      {
        sk_sender = Json.to_int_exn (Json.member "sender" j);
        sk_target = Json.to_int_exn (Json.member "target" j);
        sk_key_box = Json.bytes_exn (Json.member "key" j);
      }
  | other -> raise (Json.Parse_error ("unknown frame type " ^ other))

(* Encode a native replica->client payload as the JSON the browser sees. *)
let frame_of_payload (p : Pbft.Message.payload) =
  match p with
  | Pbft.Message.Reply r ->
    Some
      (Json.Obj
         [
           ("type", Json.Str "reply");
           ("view", Json.Num (float_of_int r.r_view));
           ("client", Json.Num (float_of_int r.r_client));
           ("id", Json.Num (float_of_int r.r_id));
           ("replica", Json.Num (float_of_int r.r_replica));
           ("result", Json.of_bytes r.r_result);
           ("tentative", Json.Bool r.r_tentative);
         ])
  | Pbft.Message.Join_challenge jc ->
    Some
      (Json.Obj
         [
           ("type", Json.Str "join-challenge");
           ("replica", Json.Num (float_of_int jc.jc_replica));
           ("addr", Json.Num (float_of_int jc.jc_addr));
           ("nonce", Json.of_bytes jc.jc_nonce);
         ])
  | Pbft.Message.Join_reply jl ->
    Some
      (Json.Obj
         [
           ("type", Json.Str "join-reply");
           ("replica", Json.Num (float_of_int jl.jl_replica));
           ("client", Json.Num (float_of_int jl.jl_client));
           ("ok", Json.Bool jl.jl_ok);
         ])
  | _ -> None

(* --- bridge --- *)

module Bridge = struct
  type t = {
    net : Simnet.Net.t;
    cpu : Simnet.Cpu.t;
    replica : replica_id;
    mutable translated : int;
    mutable n_rejected : int;
    mutable alive : bool;
  }

  let attach ~cfg ~costs ~engine ~net ~replica =
    ignore cfg;
    ignore costs;
    let t =
      {
        net;
        cpu = Simnet.Cpu.create engine;
        replica;
        translated = 0;
        n_rejected = 0;
        alive = true;
      }
    in
    Simnet.Net.register net (bridge_addr replica) (fun ~src frame ->
        if t.alive then begin
          Simnet.Cpu.execute t.cpu ~cost:(json_cost (String.length frame)) (fun () ->
              match Json.parse frame with
              | exception Json.Parse_error _ -> t.n_rejected <- t.n_rejected + 1
              | j -> begin
                match
                  let payload = payload_of_frame j in
                  let auth =
                    match Json.member_opt "sig" j with
                    | Some s -> Pbft.Message.Signed (Json.bytes_exn s)
                    | None -> Pbft.Message.No_auth
                  in
                  Pbft.Message.encode { Pbft.Message.payload; auth }
                with
                | exception Json.Parse_error _ -> t.n_rejected <- t.n_rejected + 1
                | exception Not_found -> t.n_rejected <- t.n_rejected + 1
                | wire ->
                  t.translated <- t.translated + 1;
                  (* Local hop into the co-located replica, preserving the
                     browser as the datagram source. *)
                  Simnet.Net.send t.net ~label:"ws-bridged" ~src ~dst:t.replica wire
              end)
        end);
    t

  let frames_translated t = t.translated
  let rejected t = t.n_rejected

  let detach t =
    t.alive <- false;
    Simnet.Net.unregister t.net (bridge_addr t.replica)
end

(* --- browser --- *)

module Browser = struct
  type outstanding = {
    o_id : int;
    o_replies : (replica_id, string * bool) Hashtbl.t;
    o_counts : (string * bool, int) Hashtbl.t;
        (** per-(result, tentative) vote counts, maintained incrementally
            so each reply checks one key instead of recounting all *)
    o_callback : string -> unit;
    mutable o_timer : Simnet.Engine.timer option;
    o_frame : Json.t;  (** retransmitted on timeout *)
  }

  type join_state = {
    j_nonce : string;
    j_idbuf : string;
    j_challenges : (replica_id, string) Hashtbl.t;
    j_replies : (replica_id, client_id) Hashtbl.t;
    j_callback : client_id option -> unit;
    mutable j_responded : bool;
    mutable j_timer : Simnet.Engine.timer option;
  }

  type t = {
    cfg : Pbft.Config.t;
    costs : Pbft.Costmodel.t;
    engine : Simnet.Engine.t;
    net : Simnet.Net.t;
    cpu : Simnet.Cpu.t;
    rng : Util.Rng.t;
    baddr : int;
    signer : Crypto.Keychain.signer;
    registry : Pbft.Replica.registry;
    classify : string -> bool;
        (** service-proven read-only classifier: ops it accepts ride the
            read-only fast path without the caller opting in *)
    mutable cid : client_id option;
    mutable next_id : int;
    mutable out : outstanding option;
    mutable joining : join_state option;
    mutable n_completed : int;
    mutable alive : bool;
  }

  let client_id t = t.cid
  let completed t = t.n_completed
  let now t = Simnet.Engine.now t.engine
  let replica_ids t = List.init t.cfg.Pbft.Config.n (fun i -> i)

  let verifier_string t =
    Crypto.Keychain.verifier_to_string (Crypto.Keychain.verifier_of t.signer)

  (* Sign the canonical native payload bytes (the bridge reconstructs the
     same bytes, so replicas verify exactly what the browser signed). *)
  let signed_frame t payload json_fields =
    let pb = Pbft.Message.payload_bytes payload in
    let signature = Crypto.Keychain.sign t.signer pb in
    Json.Obj (json_fields @ [ ("sig", Json.of_bytes signature) ])

  let send_frame t ~replica frame =
    let text = Json.print frame in
    Simnet.Cpu.execute t.cpu
      ~cost:(t.costs.Pbft.Costmodel.sign +. json_cost (String.length text))
      (fun () ->
        Simnet.Net.send t.net ~label:"ws-frame" ~src:t.baddr ~dst:(bridge_addr replica) text)

  let multicast_frame t frame = List.iter (fun r -> send_frame t ~replica:r frame) (replica_ids t)

  (* --- join --- *)

  let join_request_frame t js =
    let payload =
      Pbft.Message.Join_request
        { j_addr = t.baddr; j_pubkey = verifier_string t; j_nonce = js.j_nonce }
    in
    signed_frame t payload
      [
        ("type", Json.Str "join-request");
        ("addr", Json.Num (float_of_int t.baddr));
        ("pubkey", Json.of_bytes (verifier_string t));
        ("nonce", Json.Str js.j_nonce);
      ]

  let join_response_frame t js challenge =
    let proof = js.j_nonce ^ "|" ^ challenge in
    let payload =
      Pbft.Message.Join_response
        { jr_addr = t.baddr; jr_proof = proof; jr_pubkey = verifier_string t; jr_idbuf = js.j_idbuf }
    in
    signed_frame t payload
      [
        ("type", Json.Str "join-response");
        ("addr", Json.Num (float_of_int t.baddr));
        ("proof", Json.of_bytes proof);
        ("pubkey", Json.of_bytes (verifier_string t));
        ("idbuf", Json.of_bytes js.j_idbuf);
      ]

  (* Retry [k] after the join timeout unless this join finished first. *)
  let arm_join_retry t js k =
    js.j_timer <-
      Some
        (Simnet.Engine.timer t.engine ~delay:t.cfg.Pbft.Config.join_request_timeout (fun () ->
             let[@detlint.allow physical_eq] active =
               match t.joining with Some js' -> js' == js | None -> false
             in
             if t.alive && active && t.cid = None then k ()))

  let rec join_phase1 t js =
    multicast_frame t (join_request_frame t js);
    arm_join_retry t js (fun () -> if js.j_responded then join_phase2 t js else join_phase1 t js)

  and join_phase2 t js =
    match Util.Sorted_tbl.fold (fun _ c _ -> Some c) js.j_challenges None with
    | None -> join_phase1 t js
    | Some challenge ->
      js.j_responded <- true;
      multicast_frame t (join_response_frame t js challenge);
      arm_join_retry t js (fun () -> join_phase2 t js)

  let join t ~idbuf callback =
    let js =
      {
        j_nonce = Util.Hexdump.of_string (Bytes.to_string (Util.Rng.bytes t.rng 16));
        j_idbuf = idbuf;
        j_challenges = Hashtbl.create 8;
        j_replies = Hashtbl.create 8;
        j_callback = callback;
        j_responded = false;
        j_timer = None;
      }
    in
    t.joining <- Some js;
    join_phase1 t js

  (* In MAC-mode deployments the replicas expect a session key from every
     client; browsers distribute theirs as JSON frames through the
     bridges. *)
  let announce_session_keys t =
    List.iter
      (fun replica ->
        let key = Crypto.Mac.fresh_key t.rng in
        let payload =
          Pbft.Message.Session_key { sk_sender = t.baddr; sk_target = replica; sk_key_box = key }
        in
        let frame =
          signed_frame t payload
            [
              ("type", Json.Str "session-key");
              ("sender", Json.Num (float_of_int t.baddr));
              ("target", Json.Num (float_of_int replica));
              ("key", Json.of_bytes key);
            ]
        in
        send_frame t ~replica frame)
      (replica_ids t)

  (* --- requests --- *)

  let rec arm_retransmit t o =
    o.o_timer <-
      Some
        (Simnet.Engine.timer t.engine ~delay:t.cfg.Pbft.Config.client_timeout (fun () ->
             let[@detlint.allow physical_eq] still =
               match t.out with Some o' -> o' == o | None -> false
             in
             if t.alive && still then begin
               multicast_frame t o.o_frame;
               arm_retransmit t o
             end))

  let invoke t ?(readonly = false) op callback =
    (match t.out with Some _ -> failwith "Browser.invoke: request outstanding" | None -> ());
    let cid = match t.cid with Some c -> c | None -> failwith "Browser.invoke: not joined" in
    let readonly = readonly || t.classify op in
    t.next_id <- t.next_id + 1;
    let rq =
      {
        Pbft.Message.rq_client = cid;
        rq_id = t.next_id;
        rq_op = op;
        rq_readonly = readonly;
        rq_timestamp = now t;
      }
    in
    let frame =
      match signed_frame t (Pbft.Message.Request_msg rq) [] with
      | Json.Obj [ sig_field ] -> (
        match json_of_request rq with
        | Json.Obj fields -> Json.Obj (fields @ [ sig_field ])
        | _ -> assert false)
      | _ -> assert false
    in
    let o =
      { o_id = t.next_id; o_replies = Hashtbl.create 8; o_counts = Hashtbl.create 8;
        o_callback = callback; o_timer = None; o_frame = frame }
    in
    t.out <- Some o;
    multicast_frame t frame;
    arm_retransmit t o

  let bump o key delta =
    match Option.value ~default:0 (Hashtbl.find_opt o.o_counts key) + delta with
    | 0 -> Hashtbl.remove o.o_counts key
    | n ->
      (Hashtbl.replace o.o_counts key n)
      [@trustlint.allow
        "per-replica vote tally at the keyless browser seam: a result is \
         released only once check_quorum sees f+1 (stable) or 2f+1 \
         (tentative) matching replies from distinct replicas"]

  (* A stable reply also votes in the tentative tally — committed implies
     prepared — or 2f tentative + 1 stable matching replies (all that f
     mute replicas leave) would reach neither threshold. *)
  let record_vote o ((result, tentative) as key) =
    bump o key 1;
    if not tentative then bump o (result, true) 1

  let retract_vote o ((result, tentative) as key) =
    bump o key (-1);
    if not tentative then bump o (result, true) (-1)

  let count o key = Option.value ~default:0 (Hashtbl.find_opt o.o_counts key)

  (* Only the keys the newest reply voted for can newly reach quorum, so
     the check is O(1) per reply. *)
  let check_quorum t o ~key:(result, tentative) =
    if (not tentative) && count o (result, false) >= quorum_f1 ~f:t.cfg.Pbft.Config.f then
      Some result
    else if count o (result, true) >= quorum_2f1 ~f:t.cfg.Pbft.Config.f then Some result
    else None

  (* The value at least f+1 replicas reported, or [None]. Tallies walk
     keys in sorted order: two values could both reach f+1, and the pick
     must not depend on hash-bucket order. *)
  let f1_value t tbl =
    let counts = Hashtbl.create 4 in
    Util.Sorted_tbl.iter
      (fun _ c -> Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
      tbl;
    Util.Sorted_tbl.fold
      (fun c n acc -> if n >= quorum_f1 ~f:t.cfg.Pbft.Config.f then Some c else acc)
      counts None

  (* --- incoming (replica -> browser boundary) --- *)

  let handle_json t ~src j =
    match Json.to_string_exn (Json.member "type" j) with
    | "reply" -> begin
      match t.out with
      | None -> ()
      | Some o ->
        if Json.to_int_exn (Json.member "id" j) = o.o_id then begin
          let result = Json.bytes_exn (Json.member "result" j) in
          let tentative = Json.to_bool_exn (Json.member "tentative" j) in
          (match Hashtbl.find_opt o.o_replies src with
          | Some (_, false) -> ()
          | Some ((_, true) as old) ->
            retract_vote o old;
            (Hashtbl.replace o.o_replies src (result, tentative))
            [@trustlint.allow
              "records this replica's latest vote, keyed by its link-level \
               source; votes only become a result through check_quorum's \
               f+1/2f+1 matching-reply thresholds"];
            record_vote o (result, tentative)
          | None ->
            (Hashtbl.replace o.o_replies src (result, tentative))
            [@trustlint.allow
              "records this replica's first vote, keyed by its link-level \
               source; votes only become a result through check_quorum's \
               f+1/2f+1 matching-reply thresholds"];
            record_vote o (result, tentative));
          match check_quorum t o ~key:(result, tentative) with
          | None -> ()
          | Some result ->
            (match o.o_timer with Some timer -> Simnet.Engine.cancel timer | None -> ());
            t.out <- None;
            t.n_completed <- t.n_completed + 1;
            o.o_callback result
        end
    end
    | "join-challenge" -> begin
      match t.joining with
      | None -> ()
      | Some js ->
        (Hashtbl.replace js.j_challenges src (Json.bytes_exn (Json.member "nonce" j)))
        [@trustlint.allow
          "join-challenge nonce tally: phase 2 starts only after f+1 \
           distinct replicas report the same nonce, and the join itself is \
           finalized by f+1 matching join-replies"];
        if Option.is_some (f1_value t js.j_challenges) && not js.j_responded then
          join_phase2 t js
    end
    | "join-reply" -> begin
      match t.joining with
      | None -> ()
      | Some js ->
        if Json.to_bool_exn (Json.member "ok" j) then begin
          (Hashtbl.replace js.j_replies src (Json.to_int_exn (Json.member "client" j)))
          [@trustlint.allow
            "join-reply tally: the client id is adopted only when f+1 \
             distinct replicas report the same id"];
          match f1_value t js.j_replies with
          | None -> ()
          | Some client ->
            (match js.j_timer with Some timer -> Simnet.Engine.cancel timer | None -> ());
            t.joining <- None;
            t.cid <- Some client;
            if t.cfg.Pbft.Config.use_macs then announce_session_keys t;
            js.j_callback (Some client)
        end
        else begin
          (match js.j_timer with Some timer -> Simnet.Engine.cancel timer | None -> ());
          t.joining <- None;
          js.j_callback None
        end
    end
    | _ -> ()

  let on_datagram t ~src wire =
    if t.alive then begin
      (* The reverse bridge: the native reply is translated to JSON here,
         charging the conversion the replica-side endpoint would pay. *)
      match Pbft.Message.decode wire with
      | None -> ()
      | Some msg -> begin
        match frame_of_payload msg.Pbft.Message.payload with
        | None -> ()
        | Some j ->
          let text = Json.print j in
          Simnet.Cpu.execute t.cpu ~cost:(json_cost (String.length text)) (fun () ->
              match Json.parse text with
              | exception Json.Parse_error _ -> ()
              | j -> handle_json t ~src j)
      end
    end

  let create ~cfg ~costs ~engine ~net ~addr ~signer ~registry ?client_id
      ?(classify_readonly = Pbft.Service.never_readonly) () =
    let t =
      {
        cfg;
        costs;
        engine;
        net;
        cpu = Simnet.Cpu.create engine;
        rng = Util.Rng.split (Simnet.Engine.rng engine);
        baddr = addr;
        signer;
        registry;
        classify = classify_readonly;
        cid = client_id;
        next_id = 0;
        out = None;
        joining = None;
        n_completed = 0;
        alive = true;
      }
    in
    Simnet.Net.register net addr (fun ~src wire -> on_datagram t ~src wire);
    t

  let shutdown t =
    t.alive <- false;
    Simnet.Net.unregister t.net t.baddr
end
