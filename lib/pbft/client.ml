open Types

type outstanding = {
  o_rq : Message.request;
  o_multicast : bool;
  o_start : float;
  o_replies : (replica_id, string * bool) Hashtbl.t;
  o_counts : (string * bool, int) Hashtbl.t;
      (** vote count per (result, tentative) key, maintained incrementally
          so each incoming reply checks its own key in O(1) instead of
          recounting every recorded reply *)
  o_partials : (replica_id, string * string) Hashtbl.t;
      (** replica -> (result it reported, its wire partial) *)
  o_callback : string -> string option -> unit;
  mutable o_timer : Simnet.Engine.timer option;
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
  cfg : Config.t;
  costs : Costmodel.t;
  engine : Simnet.Engine.t;
  net : Simnet.Net.t;
  cpu : Simnet.Cpu.t;
  rng : Util.Rng.t;
  caddr : int;
  transport : Transport.t;
  signer : Crypto.Keychain.signer;
  registry : Replica.registry;
  threshold_public : Crypto.Threshold.public option;
  keys : (replica_id, Crypto.Mac.key) Hashtbl.t;
  mutable cid : client_id option;
  mutable next_rq_id : int;
  mutable view_guess : view;
  mutable out : outstanding option;
  mutable joining : join_state option;
  mutable n_completed : int;
  mutable n_tentative : int;
  mutable n_retrans : int;
  mutable rebroadcast : Simnet.Engine.timer option;
      (** MAC mode: the session-key rebroadcast, cancelled by {!leave} *)
  latencies : Util.Stats.t;
}

let addr t = t.caddr
let client_id t = t.cid
let verifier_string t = Crypto.Keychain.verifier_to_string (Crypto.Keychain.verifier_of t.signer)
let completed t = t.n_completed
let tentative_completed t = t.n_tentative
let retransmissions t = t.n_retrans
let latency_stats t = t.latencies
let now t = Simnet.Engine.now t.engine

let charge t cost k = Simnet.Cpu.execute t.cpu ~cost k

let session_key_for t replica =
  match Hashtbl.find_opt t.keys replica with
  | Some k -> k
  | None ->
    let k = Crypto.Mac.fresh_key t.rng in
    Hashtbl.replace t.keys replica k;
    k

let replica_ids t = List.init t.cfg.n (fun i -> i)

(* Authenticate once and frame once, then send one copy per destination
   replica: a multicast shares its authenticator (one MAC tag per
   replica), its wire bytes and their note. *)
let send t ~dsts payload ~signed =
  let copies = float_of_int (List.length dsts) in
  let sealer, auth_cost =
    if signed || not t.cfg.use_macs then (Message.Sign t.signer, t.costs.sign)
    else
      ( Message.Macs (List.map (fun r -> (r, session_key_for t r)) dsts),
        copies *. t.costs.mac_gen )
  in
  let framed = Message.seal payload sealer in
  let wire, copy_cost = t.transport.frame framed in
  let note = Message.Framed framed in
  let label = Message.label payload in
  let detail () = Message.describe payload in
  charge t
    (auth_cost +. (copies *. copy_cost))
    (fun () ->
      List.iter
        (fun r ->
          Simnet.Net.send t.net ~label ~detail ~note ~src:t.caddr ~dst:(t.transport.address r)
            wire)
        dsts)

let multicast t payload ~signed = send t ~dsts:(replica_ids t) payload ~signed

let announce_session_keys t =
  List.iter
    (fun replica ->
      let key = session_key_for t replica in
      send t ~dsts:[ replica ] ~signed:true
        (Message.Session_key
           { sk_sender = t.caddr; sk_target = replica; sk_key_box = Crypto.Mac.key_bytes key }))
    (replica_ids t)

(* ------------------------------------------------------------------ *)
(* Requests.                                                            *)

let transmit t o ~to_all =
  let payload = Message.Request_msg o.o_rq in
  if to_all then multicast t payload ~signed:false
  else send t ~dsts:[ primary_of_view ~n:t.cfg.n t.view_guess ] payload ~signed:false

let rec arm_retransmit t o =
  o.o_timer <-
    Some
      (Simnet.Engine.timer t.engine ~delay:t.cfg.client_timeout (fun () ->
           (* Identity check on purpose: is this the same in-flight operation? *)
           let[@detlint.allow physical_eq] still_out =
             match t.out with Some o' -> o' == o | None -> false
           in
           if still_out then begin
             t.n_retrans <- t.n_retrans + 1;
             (* On timeout PBFT clients multicast to all replicas, which
                both reaches a correct primary and triggers the backups'
                view-change watchdogs. *)
             transmit t o ~to_all:true;
             arm_retransmit t o
           end))

let invoke_certified t ?(readonly = false) op callback =
  (match t.out with Some _ -> failwith "Client.invoke: request already outstanding" | None -> ());
  let cid = match t.cid with Some c -> c | None -> failwith "Client.invoke: no identity" in
  t.next_rq_id <- t.next_rq_id + 1;
  let rq =
    {
      Message.rq_client = cid;
      rq_id = t.next_rq_id;
      rq_op = op;
      rq_readonly = readonly;
      rq_timestamp = now t;
    }
  in
  let multicast = readonly || Config.is_big_request t.cfg op in
  let o =
    {
      o_rq = rq;
      o_multicast = multicast;
      o_start = now t;
      o_replies = Hashtbl.create 8;
      o_counts = Hashtbl.create 8;
      o_partials = Hashtbl.create 8;
      o_callback = callback;
      o_timer = None;
    }
  in
  t.out <- Some o;
  transmit t o ~to_all:multicast;
  arm_retransmit t o

let invoke t ?readonly op callback = invoke_certified t ?readonly op (fun r _ -> callback r)

(* The request id a 2PC coordinator needs to let third parties check the
   certificate: [invoke_certified] assigns ids densely, so the id this
   call will use is known before it runs. *)
let invoke_attested t ?readonly op callback =
  let rq_id = t.next_rq_id + 1 in
  invoke_certified t ?readonly op (fun result cert -> callback ~rq_id result cert)

(* Quorum rules (§2.1): f+1 matching stable replies, or 2f+1 matching
   tentative replies; read-only requests always need 2f+1.

   A stable reply is strictly stronger evidence than a tentative one for
   the same result (committed implies prepared), so it votes in both
   tallies: without this, a client facing f mute replicas can sit on
   2f tentative + 1 stable matching replies — enough honest agreement,
   yet neither tally alone reaches its threshold — and wedge forever.

   The counts are maintained incrementally as replies land, so only the
   keys the newest reply voted for need checking — O(1) per reply where
   the old recount was O(replies). No other key can cross its threshold
   at this instant: a key that qualified on an earlier reply would have
   completed the request then. *)
let bump o key delta =
  match Option.value ~default:0 (Hashtbl.find_opt o.o_counts key) + delta with
  | 0 -> Hashtbl.remove o.o_counts key
  | n -> Hashtbl.replace o.o_counts key n

let record_vote o ((result, tentative) as key) =
  bump o key 1;
  if not tentative then bump o (result, true) 1

let retract_vote o ((result, tentative) as key) =
  bump o key (-1);
  if not tentative then bump o (result, true) (-1)

let count o key = Option.value ~default:0 (Hashtbl.find_opt o.o_counts key)

let check_quorum t o ~key:(result, tentative) =
  if (not tentative) && count o (result, false) >= quorum_f1 ~f:t.cfg.f then
    Some (result, false)
  else if count o (result, true) >= quorum_2f1 ~f:t.cfg.f then Some (result, true)
  else None

(* Combine the partials from replicas that reported the accepted result
   into one service certificate (§3.3.1). *)
let build_certificate t o result =
  match t.threshold_public with
  | None -> None
  | Some pk ->
    let wires =
      Util.Sorted_tbl.fold
        (fun _ (res, wire) acc -> if String.equal res result then wire :: acc else acc)
        o.o_partials []
    in
    Certificate.combine pk ~client:o.o_rq.Message.rq_client ~rq_id:o.o_rq.Message.rq_id ~result
      wires

let handle_reply t ~src ~r_view ~r_id ~r_replica ~r_result ~r_tentative ~r_partial =
  match t.out with
  | None -> ()
  | Some o ->
    if r_id = o.o_rq.rq_id && r_replica = src then begin
      t.view_guess <- Int.max t.view_guess r_view;
      (* Tentative and stable replies are tracked together; a stable reply
         from the same replica supersedes its tentative one. *)
      (match Hashtbl.find_opt o.o_replies src with
      | Some (_, false) -> ()
      | Some ((_, true) as old) ->
        retract_vote o old;
        Hashtbl.replace o.o_replies src (r_result, r_tentative);
        record_vote o (r_result, r_tentative)
      | None ->
        Hashtbl.replace o.o_replies src (r_result, r_tentative);
        record_vote o (r_result, r_tentative));
      (match r_partial with
      | Some wire -> Hashtbl.replace o.o_partials src (r_result, wire)
      | None -> ());
      match check_quorum t o ~key:(r_result, r_tentative) with
      | None -> ()
      | Some (result, tentative) ->
        (match o.o_timer with Some timer -> Simnet.Engine.cancel timer | None -> ());
        t.out <- None;
        t.n_completed <- t.n_completed + 1;
        if tentative then t.n_tentative <- t.n_tentative + 1;
        Util.Stats.add t.latencies (now t -. o.o_start);
        let cert = build_certificate t o result in
        (* Combining is a handful of modular exponentiations. *)
        let cost = match cert with Some _ -> t.costs.sign | None -> 0.0 in
        charge t cost (fun () -> o.o_callback result cert)
    end

(* ------------------------------------------------------------------ *)
(* Join / leave (§3.1).                                                 *)

(* The value at least f+1 replicas reported — at most f of them lie, so
   the group vouches for it — or [None]. The tally walks keys in sorted
   order: two values could both reach f+1, and the pick must not depend
   on hash-bucket order. *)
let f1_value t tbl =
  let counts = Hashtbl.create 4 in
  Util.Sorted_tbl.iter
    (fun _ v -> Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
    tbl;
  Util.Sorted_tbl.fold (fun v n acc -> if n >= quorum_f1 ~f:t.cfg.f then Some v else acc) counts None

(* Retry [k] after the join timeout unless this join finished first. *)
let arm_join_retry t js k =
  js.j_timer <-
    Some
      (Simnet.Engine.timer t.engine ~delay:Config.join_request_timeout (fun () ->
           let[@detlint.allow physical_eq] active =
             match t.joining with Some js' -> js' == js | None -> false
           in
           if active && t.cid = None then k ()))

let rec send_join_phase1 t js =
  multicast t ~signed:true
    (Message.Join_request { j_addr = t.caddr; j_pubkey = verifier_string t; j_nonce = js.j_nonce });
  arm_join_retry t js (fun () ->
      if js.j_responded then send_join_phase2 t js else send_join_phase1 t js)

(* Answer the challenge f+1 replicas agree on: challenges are
   deterministic, so that is the one the group issued, whatever a lying
   replica sent. *)
and send_join_phase2 t js =
  match f1_value t js.j_challenges with
  | None -> send_join_phase1 t js
  | Some challenge ->
    js.j_responded <- true;
    multicast t ~signed:true
      (Message.Join_response
         {
           jr_addr = t.caddr;
           jr_proof = js.j_nonce ^ "|" ^ challenge;
           jr_pubkey = verifier_string t;
           jr_idbuf = js.j_idbuf;
         });
    arm_join_retry t js (fun () -> send_join_phase2 t js)

let join t ~idbuf callback =
  if not t.cfg.dynamic_clients then failwith "Client.join: static configuration";
  let js =
    {
      (* Hex-encoded so the nonce|challenge proof framing stays parseable. *)
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
  send_join_phase1 t js

(* A client that left and joins again takes up the rebroadcast anew. *)
let arm_rebroadcast t =
  if t.cfg.use_macs && Option.is_none t.rebroadcast then
    t.rebroadcast <-
      Some
        (Simnet.Engine.periodic t.engine ~interval:t.cfg.authenticator_rebroadcast (fun () ->
             if t.cid <> None then announce_session_keys t))

let finish_join t js result =
  (match js.j_timer with Some timer -> Simnet.Engine.cancel timer | None -> ());
  t.joining <- None;
  (match result with
  | Some client ->
    t.cid <- Some client;
    arm_rebroadcast t;
    if t.cfg.use_macs then announce_session_keys t
  | None -> ());
  js.j_callback result

let handle_join_challenge t ~src (jc : string) =
  match t.joining with
  | None -> ()
  | Some js ->
    Hashtbl.replace js.j_challenges src jc;
    if (not js.j_responded) && Option.is_some (f1_value t js.j_challenges) then
      send_join_phase2 t js

let handle_join_reply t ~src (client, ok) =
  match t.joining with
  | None -> ()
  | Some js ->
    if not ok then finish_join t js None
    else begin
      Hashtbl.replace js.j_replies src client;
      match f1_value t js.j_replies with
      | None -> ()
      | Some client -> finish_join t js (Some client)
    end

let leave t =
  match t.cid with
  | None -> ()
  | Some c ->
    multicast t ~signed:true (Message.Leave_msg { lv_client = c });
    t.cid <- None;
    Option.iter Simnet.Engine.cancel t.rebroadcast;
    t.rebroadcast <- None

(* ------------------------------------------------------------------ *)
(* Receive path.                                                        *)

let verify_reply_auth t ~src ({ msg; frame; pb_pos = pos; pb_len = len; mac_keys } : Message.framed)
    =
  match msg.auth with
  | Message.No_auth -> (0.0, false)
  | Message.Signed s -> begin
    if src < Array.length t.registry.reg_verifiers then
      ( t.costs.sig_verify,
        Crypto.Keychain.verify t.registry.reg_verifiers.(src) ~pos ~len frame ~signature:s )
    else (0.0, false)
  end
  | Message.Authenticated a -> begin
    match Hashtbl.find_opt t.keys src with
    | None -> (0.0, false)
    | Some key ->
      ( t.costs.mac_verify,
        Crypto.Authenticator.check ~key ~replica:t.caddr ~sender_keys:mac_keys ~pos ~len frame a )
  end

let on_datagram t ~src wire =
  let decoded, cost = t.transport.Transport.unframe t.net wire in
  charge t cost (fun () ->
      match decoded with
      | None -> ()
      | Some framed ->
        let cost, ok = verify_reply_auth t ~src framed in
        charge t cost (fun () ->
            if ok then begin
              match framed.msg.payload with
              | Message.Reply r ->
                handle_reply t ~src ~r_view:r.r_view ~r_id:r.r_id ~r_replica:r.r_replica
                  ~r_result:r.r_result ~r_tentative:r.r_tentative ~r_partial:r.r_partial
              | Message.Join_challenge jc ->
                if jc.jc_addr = t.caddr then handle_join_challenge t ~src jc.jc_nonce
              | Message.Join_reply jl -> handle_join_reply t ~src (jl.jl_client, jl.jl_ok)
              (* Replica-to-replica traffic; a client is never a valid
                 destination. Enumerated so that a new message kind fails
                 to compile until someone decides whether clients see it. *)
              | Message.Request_msg _ | Message.Pre_prepare _ | Message.Prepare _
              | Message.Commit _ | Message.Checkpoint_msg _ | Message.View_change _
              | Message.New_view _ | Message.Session_key _ | Message.Join_request _
              | Message.Join_response _ | Message.Leave_msg _ | Message.Fetch_meta _
              | Message.State_meta _ | Message.Fetch_pages _ | Message.State_pages _
              | Message.Fetch_body _ | Message.Body _ | Message.Fetch_entry _
              | Message.Entry _ | Message.Status _ | Message.Key_request _ -> ()
            end))

let create ~cfg ~costs ~engine ~net ~addr ?transport ~signer ~registry ?threshold_public ?client_id
    () =
  let t =
    {
      cfg;
      costs;
      engine;
      net;
      cpu = Simnet.Cpu.create engine;
      rng = Util.Rng.split (Simnet.Engine.rng engine);
      caddr = addr;
      transport = Option.value transport ~default:(Transport.datagram costs);
      signer;
      registry;
      threshold_public;
      keys = Hashtbl.create 8;
      cid = client_id;
      next_rq_id = 0;
      view_guess = 0;
      out = None;
      joining = None;
      n_completed = 0;
      n_tentative = 0;
      n_retrans = 0;
      rebroadcast = None;
      latencies = Util.Stats.create ();
    }
  in
  Simnet.Net.register net addr (fun ~src wire -> on_datagram t ~src wire);
  Simnet.Net.set_backlog_probe net addr (fun () -> Simnet.Cpu.queue_length t.cpu);
  arm_rebroadcast t;
  t
