(* The gateway front door (interface docs in frontdoor.mli). Each
   upstream connection is an ordinary {!Pbft.Client} obeying the
   one-outstanding-request rule, so coalescing composes with the
   primary's own request batching: the congestion window packs
   concurrent connection requests into pre-prepare batches exactly as it
   packs independent clients. Shedding at [max_queue] is §2.4's lesson
   applied at the front door: an open-loop generator observes
   backpressure instead of unbounded queueing. A retransmission from a
   session the LRU evicted is simply re-admitted as a fresh record. The
   sharded mode adds only the cross-shard 2PC coordinator; single-shard
   ops take the lane path an unsharded door's ops take. *)

let frontdoor_addr = 4000

(* Binary frame conversion cost: a fraction of the JSON seam's. *)
let frame_cost bytes = 2e-6 +. (5e-9 *. float_of_int bytes)

let decode_opt f wire =
  match Util.Codec.decode f wire with v -> Some v | exception Util.Codec.R.Truncated -> None

(* --- session <-> door frames --- *)

let encode_request ~session ~req_id ~op =
  Util.Codec.encode
    (fun w () ->
      Util.Codec.W.varint w session;
      Util.Codec.W.varint w req_id;
      Util.Codec.W.lstring w op)
    ()

let decode_request wire =
  decode_opt
    (fun r ->
      let session = Util.Codec.R.varint r in
      let req_id = Util.Codec.R.varint r in
      let op = Util.Codec.R.lstring r in
      (session, req_id, op))
    wire

type status = Done | Shed

let encode_reply ~status ~session ~req_id ~result =
  Util.Codec.encode
    (fun w () ->
      Util.Codec.W.u8 w (match status with Done -> 0 | Shed -> 1);
      Util.Codec.W.varint w session;
      Util.Codec.W.varint w req_id;
      Util.Codec.W.lstring w result)
    ()

let decode_reply wire =
  decode_opt
    (fun r ->
      let status = match Util.Codec.R.u8 r with 0 -> Done | _ -> Shed in
      let session = Util.Codec.R.varint r in
      let req_id = Util.Codec.R.varint r in
      let result = Util.Codec.R.lstring r in
      (status, session, req_id, result))
    wire

(* --- coalesced upstream operations --- *)

(* A coalesced op is a magic-tagged list of (session, op) pairs; the
   service wrapper below unpacks it and runs each element against the
   wrapped service, so any service composes with the door. *)

let coalesce_magic = "GWB1"

let encode_coalesced entries =
  Util.Codec.encode
    (fun w l ->
      Util.Codec.W.string w coalesce_magic;
      Util.Codec.W.list w
        (fun w (session, op) ->
          Util.Codec.W.varint w session;
          Util.Codec.W.lstring w op)
        l)
    entries

let decode_coalesced op =
  if String.starts_with ~prefix:coalesce_magic op then
    decode_opt
      (fun r ->
        Util.Codec.R.skip r (String.length coalesce_magic);
        Util.Codec.R.list r (fun r ->
            let session = Util.Codec.R.varint r in
            let o = Util.Codec.R.lstring r in
            (session, o)))
      op
  else None

let encode_results results = Util.Codec.encode (fun w l -> Util.Codec.W.list w Util.Codec.W.lstring l) results

let decode_results s = decode_opt (fun r -> Util.Codec.R.list r Util.Codec.R.lstring) s

(* Wrap a service so coalesced ops execute element-wise against it. The
   session id rides along as the [client] of each inner execution, so
   session-scoped services (session_kv) key their state by front-door
   session rather than by upstream connection. Non-coalesced ops pass
   through untouched. *)
let wrap_service (inner : Pbft.Service.t) =
  {
    inner with
    Pbft.Service.name = "gw:" ^ inner.Pbft.Service.name;
    make =
      (fun pages ~first_page ->
        let instance = inner.Pbft.Service.make pages ~first_page in
        {
          instance with
          Pbft.Service.execute =
            (fun ~op ~client ~timestamp ~nondet ~readonly ->
              match decode_coalesced op with
              | None -> instance.Pbft.Service.execute ~op ~client ~timestamp ~nondet ~readonly
              | Some entries ->
                let cost = ref 1e-6 in
                let results =
                  List.map
                    (fun (session, o) ->
                      let result, c =
                        (instance.Pbft.Service.execute ~op:o ~client:session ~timestamp ~nondet
                           ~readonly)
                        [@trustlint.allow
                          "each element is one of this door's own admitted \
                           session frames: the door MAC-authenticated the \
                           coalesced batch as a PBFT client, and \
                           Replica.check_auth plus three-phase ordering ran \
                           before execute (§gateway trust model: the door is \
                           trusted for its sessions)"]
                      in
                      cost := !cost +. c;
                      result)
                    entries
                in
                (encode_results results, !cost));
        });
  }

(* --- the door --- *)

type config = {
  connections : int;  (** upstream PBFT client connections *)
  flush_bytes : int;  (** size trigger: flush once this many op bytes are queued *)
  flush_deadline : float;  (** deadline trigger: max queueing delay before a partial flush *)
  max_queue : int;  (** admission bound: operations queued beyond this are shed *)
  max_sessions : int;  (** LRU bound on live session records *)
}

type pending = {
  pr_session : int;
  pr_id : int;
  pr_op : string;
  pr_addr : int;  (** reply address — survives session eviction *)
  pr_enq : float;
  pr_readonly : bool;
}

(* One lane per replica group: a coalescing queue, its deadline timer and
   a pool of data connections. An unsharded door has exactly one. *)
type lane = {
  l_shard : int;
  l_data : Pbft.Client.t array;
  l_free : int Queue.t;
  l_pending : pending Queue.t;
  mutable l_pending_bytes : int;
  mutable l_blocked : bool;  (** involved in the in-flight cross-shard tx *)
  mutable l_timer : Simnet.Engine.timer option;
  l_metrics : lane_metrics option;  (** a sharded door's per-lane telemetry *)
}

and lane_metrics = { l_completed : Util.Metrics.counter; l_queue_peak : Util.Metrics.gauge }

(* A cross-shard transaction, from admission to its last acknowledgement. *)
type cross = {
  x_session : int;
  x_id : int;
  x_addr : int;
  x_enq : float;
  x_route : int list;
  x_plan : (int * string) list;
  mutable x_tx : int;  (** assigned when the coordinator starts it *)
  mutable x_sent : bool;  (** prepares dispatched (lanes were quiesced) *)
  mutable x_awaiting : int;  (** prepare votes not yet in *)
  mutable x_votes : Relsql.Twopc.vote list;
  mutable x_aborting : bool;
  mutable x_aborts_sent : int list;  (** shards already sent their Abort *)
  mutable x_acks : int;  (** commit or abort acknowledgements received *)
  mutable x_timer : Simnet.Engine.timer option;
}

(* What only a sharded door has: the routing table, the 2PC timers and
   one control connection per group that carries prepare/commit/abort. *)
type coordinator = {
  topology : Relsql.Shard.topology;
  prepare_timeout : float;
  tx_ttl : float;
  control : Pbft.Client.t array;
  control_busy : bool array;
  xq : cross Queue.t;
  mutable current : cross option;
  mutable next_tx : int;
  n_cross_commits : Util.Metrics.counter;
  n_cross_aborts : Util.Metrics.counter;
  n_cross_timeouts : Util.Metrics.counter;  (** of the aborts, those the prepare timer fired *)
}

(* The session's replay cache is keyed on (route, request id): a cross-
   shard reply cached under route "0,2" can never answer a single-shard
   retransmission that reused the same id after a session reset. *)
type session = { mutable s_last_reply : (string * int * string) option }

type t = {
  cfg : config;
  engine : Simnet.Engine.t;
  net : Simnet.Net.t;
  cpu : Simnet.Cpu.t;
  classify : string -> bool;
  lanes : lane array;
  coord : coordinator option;
  sessions : (int, session) Util.Lru.t;
  latency : Util.Stats.t;
  n_completed : Util.Metrics.counter;
  n_shed : Util.Metrics.counter;
  n_rejected : Util.Metrics.counter;
  n_cache_hits : Util.Metrics.counter;
  n_flushes_size : Util.Metrics.counter;
  n_flushes_deadline : Util.Metrics.counter;
  queue_peak : Util.Metrics.gauge;  (** the largest lane's *)
  mutable alive : bool;
}

let now t = Simnet.Engine.now t.engine

let send_reply t ~dst ~status ~session ~req_id ~result =
  let frame = encode_reply ~status ~session ~req_id ~result in
  Simnet.Cpu.execute t.cpu ~cost:(frame_cost (String.length frame)) (fun () ->
      Simnet.Net.send t.net ~label:"gw-reply" ~src:frontdoor_addr ~dst frame)

let session_record t session =
  match Util.Lru.find t.sessions session with
  | Some s -> s
  | None ->
    let s = { s_last_reply = None } in
    (Util.Lru.put t.sessions session s)
    [@trustlint.allow
      "admission record for a not-yet-trusted edge session (§gateway trust \
       model): the door never trusts the op itself — replicas MAC-verify \
       every operation before execution — and the LRU bound caps what an \
       unauthenticated peer can pin"];
    s

let cache_reply t ~session ~route_key ~req_id ~result =
  match Util.Lru.find t.sessions session with
  | Some s ->
    (s.s_last_reply <- Some (route_key, req_id, result))
    [@trustlint.allow
      "the result came through a Pbft.Client of this door, which surfaces a \
       reply only after f+1 matching replies whose MACs verify_reply_auth \
       checked"]
  | None -> ()

(* Cancelling a fired or cancelled timer is a no-op. *)
let cancel_timer = function Some timer -> Simnet.Engine.cancel timer | None -> ()

(* --- lanes: coalescing, size/deadline flush --- *)

let count_lane lane =
  match lane.l_metrics with Some m -> Util.Metrics.incr m.l_completed | None -> ()

(* Dispatch one coalesced batch on one free connection of [lane]. *)
let rec dispatch t lane trigger =
  if t.alive && not lane.l_blocked then
    match Queue.take_opt lane.l_free with
    | None -> ()
    | Some idx -> (
      (* A batch is a contiguous same-classification run: mixing one
         write into a read batch would drag every read through full
         agreement. *)
      let rec take acc bytes ro =
        if bytes >= t.cfg.flush_bytes then List.rev acc
        else
          match Queue.peek_opt lane.l_pending with
          | Some p when (match acc with [] -> true | _ -> Bool.equal p.pr_readonly ro) ->
            ignore (Queue.pop lane.l_pending);
            (lane.l_pending_bytes <- lane.l_pending_bytes - String.length p.pr_op)
            [@trustlint.allow
              "flow-control accounting over the door's own admitted frames \
               (the lane was picked by routing the unverified op, which is \
               admission control's job); drives batching only, never \
               replicated state"];
            take (p :: acc) (bytes + String.length p.pr_op) p.pr_readonly
          | Some _ | None -> List.rev acc
      in
      match take [] 0 false with
      | [] -> Queue.push idx lane.l_free
      | first :: _ as batch ->
        (match trigger with
        | `Size -> Util.Metrics.incr t.n_flushes_size
        | `Deadline -> Util.Metrics.incr t.n_flushes_deadline);
        let op = encode_coalesced (List.map (fun p -> (p.pr_session, p.pr_op)) batch) in
        let route_key = Relsql.Shard.route_key (Relsql.Shard.Single lane.l_shard) in
        Pbft.Client.invoke lane.l_data.(idx) ~readonly:first.pr_readonly op (fun encoded ->
            if t.alive then begin
              Queue.push idx lane.l_free;
              let results =
                match decode_results encoded with
                | Some rs when List.length rs = List.length batch -> rs
                | Some _ | None -> List.map (fun _ -> encoded) batch
              in
              List.iter2
                (fun p result ->
                  Util.Metrics.incr t.n_completed;
                  count_lane lane;
                  Util.Stats.add t.latency (now t -. p.pr_enq);
                  cache_reply t ~session:p.pr_session ~route_key ~req_id:p.pr_id ~result;
                  send_reply t ~dst:p.pr_addr ~status:Done ~session:p.pr_session ~req_id:p.pr_id
                    ~result)
                batch results;
              (* Keep draining: a freed connection takes another full batch
                 if one is already queued; partial remainders wait for the
                 deadline timer. A lane blocked for a cross-shard tx instead
                 tells the coordinator it may now be quiet. *)
              match t.coord with
              | Some c when lane.l_blocked -> maybe_begin_prepares t c
              | Some _ | None ->
                if lane.l_pending_bytes >= t.cfg.flush_bytes then dispatch_all t lane `Size
            end))

and dispatch_all t lane trigger =
  let before = Queue.length lane.l_pending in
  dispatch t lane trigger;
  if Queue.length lane.l_pending < before && lane.l_pending_bytes >= t.cfg.flush_bytes then
    dispatch_all t lane trigger

and arm_deadline t lane =
  match lane.l_timer with
  | Some _ -> ()
  | None ->
    if not (Queue.is_empty lane.l_pending || lane.l_blocked) then
      lane.l_timer <-
        Some
          (Simnet.Engine.timer t.engine ~delay:t.cfg.flush_deadline (fun () ->
               lane.l_timer <- None;
               if t.alive then begin
                 if not (Queue.is_empty lane.l_pending) then begin
                   dispatch t lane `Deadline;
                   if lane.l_pending_bytes >= t.cfg.flush_bytes then dispatch_all t lane `Size
                 end;
                 arm_deadline t lane
               end))

(* A lane the coordinator just released flushes what queued behind the
   cross-shard tx. *)
and release t lane =
  lane.l_blocked <- false;
  dispatch_all t lane `Size;
  arm_deadline t lane

(* --- the cross-shard coordinator (sharded doors only) --- *)

and resolve_cross t c xs =
  cancel_timer xs.x_timer;
  List.iter (fun s -> release t t.lanes.(s)) xs.x_route;
  c.current <- None;
  try_start_cross t c

and finish_cross t xs ~result =
  cache_reply t ~session:xs.x_session
    ~route_key:(Relsql.Shard.route_key (Relsql.Shard.Cross xs.x_route))
    ~req_id:xs.x_id ~result;
  Util.Stats.add t.latency (now t -. xs.x_enq);
  send_reply t ~dst:xs.x_addr ~status:Done ~session:xs.x_session ~req_id:xs.x_id ~result

and send_abort_to t c xs shard =
  if not (List.mem shard xs.x_aborts_sent || c.control_busy.(shard)) then begin
    xs.x_aborts_sent <- shard :: xs.x_aborts_sent;
    c.control_busy.(shard) <- true;
    let op = Relsql.Twopc.encode_op (Relsql.Twopc.Abort { tx = xs.x_tx; reason = "coordinator" }) in
    Pbft.Client.invoke c.control.(shard) op (fun _ ->
        if t.alive then begin
          c.control_busy.(shard) <- false;
          (* The shard has rolled back; release it for single-shard
             traffic now rather than holding it for the slowest
             participant (which may be mid-view-change for seconds). *)
          release t t.lanes.(shard);
          xs.x_acks <- xs.x_acks + 1;
          if xs.x_acks >= List.length xs.x_route then resolve_cross t c xs
        end)
  end

and start_abort t c xs ~reason ~timed_out =
  if not xs.x_aborting then begin
    xs.x_aborting <- true;
    cancel_timer xs.x_timer;
    Util.Metrics.incr c.n_cross_aborts;
    if timed_out then Util.Metrics.incr c.n_cross_timeouts;
    finish_cross t xs ~result:("error:2pc-aborted:" ^ reason);
    (* Shards whose control connection is free get their Abort now; one
       still awaiting a prepare reply (a stalled or Byzantine group) gets
       it when that reply finally lands — and the agreed deadline inside
       the shard bounds the wait even if it never does. *)
    List.iter (send_abort_to t c xs) xs.x_route
  end

and commit_cross t c xs =
  cancel_timer xs.x_timer;
  let votes = xs.x_votes in
  let op = Relsql.Twopc.encode_op (Relsql.Twopc.Commit { tx = xs.x_tx; votes }) in
  List.iter
    (fun s ->
      c.control_busy.(s) <- true;
      Pbft.Client.invoke c.control.(s) op (fun _ ->
          if t.alive then begin
            c.control_busy.(s) <- false;
            count_lane t.lanes.(s);
            xs.x_acks <- xs.x_acks + 1;
            if xs.x_acks >= List.length xs.x_route then begin
              Util.Metrics.incr c.n_cross_commits;
              Util.Metrics.incr t.n_completed;
              (* Assemble the session-visible reply from the votes: each
                 shard's script results, in shard order. *)
              let prefix = Relsql.Twopc.prepared_prefix xs.x_tx in
              let part v =
                let r = v.Relsql.Twopc.v_result in
                let body =
                  if String.length r >= String.length prefix then
                    String.sub r (String.length prefix) (String.length r - String.length prefix)
                  else r
                in
                Printf.sprintf "s%d=%s" v.Relsql.Twopc.v_shard body
              in
              let sorted =
                List.sort
                  (fun a b -> Int.compare a.Relsql.Twopc.v_shard b.Relsql.Twopc.v_shard)
                  votes
              in
              finish_cross t xs ~result:(String.concat ";" (List.map part sorted));
              resolve_cross t c xs
            end
          end))
    xs.x_route

and maybe_begin_prepares t c =
  (* Quiet: every data connection back in the free pool, control idle. *)
  let quiet s =
    let lane = t.lanes.(s) in
    Queue.length lane.l_free = Array.length lane.l_data && not c.control_busy.(s)
  in
  match c.current with
  | Some xs when (not xs.x_sent) && List.for_all quiet xs.x_route ->
    xs.x_sent <- true;
    xs.x_awaiting <- List.length xs.x_plan;
    let deadline = now t +. c.tx_ttl in
    let prefix = Relsql.Twopc.prepared_prefix xs.x_tx in
    List.iter
      (fun (shard, script) ->
        c.control_busy.(shard) <- true;
        let op =
          Relsql.Twopc.encode_op
            (Relsql.Twopc.Prepare { tx = xs.x_tx; deadline; shards = xs.x_route; script })
        in
        Pbft.Client.invoke_attested c.control.(shard) op (fun ~rq_id result cert ->
            if t.alive then begin
              c.control_busy.(shard) <- false;
              xs.x_awaiting <- xs.x_awaiting - 1;
              if xs.x_aborting then
                (* Late vote for a transaction the coordinator already
                   gave up on: the now-free connection carries the Abort. *)
                send_abort_to t c xs shard
              else if
                String.length result >= String.length prefix
                && String.equal (String.sub result 0 (String.length prefix)) prefix
              then begin
                xs.x_votes <-
                  {
                    Relsql.Twopc.v_shard = shard;
                    v_client = Option.value ~default:0 (Pbft.Client.client_id c.control.(shard));
                    v_rq_id = rq_id;
                    v_result = result;
                    v_cert = Option.value ~default:"" cert;
                  }
                  :: xs.x_votes;
                if xs.x_awaiting = 0 then commit_cross t c xs
              end
              else start_abort t c xs ~reason:("vote:" ^ result) ~timed_out:false
            end))
      xs.x_plan;
    xs.x_timer <-
      Some
        (Simnet.Engine.timer t.engine ~delay:c.prepare_timeout (fun () ->
             if t.alive then start_abort t c xs ~reason:"timeout" ~timed_out:true))
  | Some _ | None -> ()

and try_start_cross t c =
  match c.current with
  | Some _ -> ()
  | None -> (
    match Queue.take_opt c.xq with
    | None -> ()
    | Some xs ->
      c.next_tx <- c.next_tx + 1;
      xs.x_tx <- c.next_tx;
      c.current <- Some xs;
      List.iter
        (fun s ->
          let lane = t.lanes.(s) in
          lane.l_blocked <- true;
          cancel_timer lane.l_timer;
          lane.l_timer <- None)
        xs.x_route;
      maybe_begin_prepares t c)

(* --- admission --- *)

let shed_reply t ~dst ~session ~req_id =
  Util.Metrics.incr t.n_shed;
  send_reply t ~dst ~status:Shed ~session ~req_id ~result:""

let admit t lane p =
  if Queue.length lane.l_pending >= t.cfg.max_queue then
    shed_reply t ~dst:p.pr_addr ~session:p.pr_session ~req_id:p.pr_id
  else begin
    Queue.push p lane.l_pending;
    (lane.l_pending_bytes <- lane.l_pending_bytes + String.length p.pr_op;
     let queued = Queue.length lane.l_pending in
     Util.Metrics.observe t.queue_peak queued;
     match lane.l_metrics with
     | Some m -> Util.Metrics.observe m.l_queue_peak queued
     | None -> ())
    [@trustlint.allow
      "flow-control accounting must act before any crypto by design: the \
       byte count drives batching and shedding and the peak is telemetry, \
       both at this door only, never replicated state"];
    if lane.l_pending_bytes >= t.cfg.flush_bytes then dispatch_all t lane `Size;
    arm_deadline t lane
  end

(* Cross-shard transactions serialize through the coordinator one at a
   time, behind their own admission bound. *)
let admit_cross t c xs =
  if Queue.length c.xq >= t.cfg.max_queue then
    shed_reply t ~dst:xs.x_addr ~session:xs.x_session ~req_id:xs.x_id
  else begin
    Queue.push xs c.xq;
    try_start_cross t c
  end

let on_frame t ~src wire =
  if t.alive then
    Simnet.Cpu.execute t.cpu ~cost:(frame_cost (String.length wire)) (fun () ->
        match decode_request wire with
        | None -> Util.Metrics.incr t.n_rejected
        | Some (session, req_id, op) -> begin
          let s = session_record t session in
          (* An unsharded door never looks inside an op. *)
          let route =
            match t.coord with
            | None -> Relsql.Shard.Single 0
            | Some c -> Relsql.Shard.classify c.topology op
          in
          let route_key = Relsql.Shard.route_key route in
          match s.s_last_reply with
          | Some (key, id, result) when id = req_id && String.equal key route_key ->
            (* Retransmission of an answered request: replay the cached
               reply instead of re-executing. *)
            Util.Metrics.incr t.n_cache_hits;
            send_reply t ~dst:src ~status:Done ~session ~req_id ~result
          | Some _ | None -> (
            match route with
            | Relsql.Shard.Single shard ->
              admit t t.lanes.(shard)
                {
                  pr_session = session;
                  pr_id = req_id;
                  pr_op = op;
                  pr_addr = src;
                  pr_enq = now t;
                  pr_readonly = t.classify op;
                }
            | Relsql.Shard.Cross shards ->
              Option.iter
                (fun c ->
                  admit_cross t c
                    {
                      x_session = session;
                      x_id = req_id;
                      x_addr = src;
                      x_enq = now t;
                      x_route = shards;
                      x_plan = Relsql.Shard.plan c.topology op;
                      x_tx = 0;
                      x_sent = false;
                      x_awaiting = 0;
                      x_votes = [];
                      x_aborting = false;
                      x_aborts_sent = [];
                      x_acks = 0;
                      x_timer = None;
                    })
                t.coord)
        end)

let make ~cfg ~engine ~net ~classify ~coord data =
  if cfg.flush_bytes < 1 then invalid_arg "Frontdoor: flush_bytes must be at least 1";
  if not (cfg.flush_deadline > 0.0) then invalid_arg "Frontdoor: flush_deadline must be positive";
  if cfg.max_queue < 1 then invalid_arg "Frontdoor: max_queue must be at least 1";
  let metrics = Simnet.Engine.metrics engine in
  let door = Util.Metrics.counter metrics ~node:frontdoor_addr ~layer:"webgate" in
  let lane_metrics s =
    {
      l_completed = Util.Metrics.counter metrics ~node:s ~layer:"shards" "completed";
      l_queue_peak = Util.Metrics.gauge metrics ~node:s ~layer:"shards" "queue_peak";
    }
  in
  let lane i pool =
    if Array.length pool < 1 then invalid_arg "Frontdoor: a lane without upstream connections";
    let free = Queue.create () in
    Array.iteri (fun j _ -> Queue.push j free) pool;
    {
      l_shard = i;
      l_data = pool;
      l_free = free;
      l_pending = Queue.create ();
      l_pending_bytes = 0;
      l_blocked = false;
      l_timer = None;
      l_metrics = Option.map (fun _ -> lane_metrics i) coord;
    }
  in
  let t =
    {
      cfg;
      engine;
      net;
      cpu = Simnet.Cpu.create engine;
      classify;
      lanes = Array.mapi lane data;
      coord;
      sessions =
        (let evicted = door "session_evictions" in
         Util.Lru.create ~capacity:cfg.max_sessions ~on_evict:(fun _ _ -> Util.Metrics.incr evicted) ());
      latency = Util.Stats.create ();
      n_completed = door "completed";
      n_shed = door "shed";
      n_rejected = door "rejected";
      n_cache_hits = door "reply_cache_hits";
      n_flushes_size = door "flushes_size";
      n_flushes_deadline = door "flushes_deadline";
      queue_peak = Util.Metrics.gauge metrics ~node:frontdoor_addr ~layer:"webgate" "queue_peak";
      alive = true;
    }
  in
  let xq_length () = match coord with Some c -> Queue.length c.xq | None -> 0 in
  Simnet.Net.register net frontdoor_addr (fun ~src wire -> on_frame t ~src wire);
  Simnet.Net.set_backlog_probe net frontdoor_addr (fun () ->
      Array.fold_left (fun acc l -> acc + Queue.length l.l_pending) (xq_length ()) t.lanes);
  t

let create ~cfg ~engine ~net ~clients () =
  make ~cfg ~engine ~net ~classify:(fun _ -> false) ~coord:None [| clients |]

let create_sharded ~cfg ~topology ~prepare_timeout ~tx_ttl ~classify ~engine ~net ~lanes () =
  if Array.length lanes <> Relsql.Shard.shards topology then
    invalid_arg "Frontdoor.create_sharded: one lane per shard required";
  let cross = Util.Metrics.counter (Simnet.Engine.metrics engine) ~node:frontdoor_addr ~layer:"shards" in
  let coord =
    {
      topology;
      prepare_timeout;
      tx_ttl;
      control = Array.map snd lanes;
      control_busy = Array.map (fun _ -> false) lanes;
      xq = Queue.create ();
      current = None;
      next_tx = 0;
      n_cross_commits = cross "cross_commits";
      n_cross_aborts = cross "cross_aborts";
      n_cross_timeouts = cross "cross_timeouts";
    }
  in
  make ~cfg ~engine ~net ~classify ~coord:(Some coord) (Array.map fst lanes)

let completed t = Util.Metrics.count t.n_completed
let shed t = Util.Metrics.count t.n_shed
let flushes_size t = Util.Metrics.count t.n_flushes_size
let flushes_deadline t = Util.Metrics.count t.n_flushes_deadline
let queue_peak t = Util.Metrics.peak t.queue_peak
let live_sessions t = Util.Lru.length t.sessions
let latency_stats t = t.latency

let shutdown t =
  t.alive <- false;
  Array.iter (fun l -> cancel_timer l.l_timer) t.lanes;
  Option.iter (fun c -> Option.iter (fun xs -> cancel_timer xs.x_timer) c.current) t.coord;
  Simnet.Net.unregister t.net frontdoor_addr
