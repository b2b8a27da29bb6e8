open Types

type registry = {
  reg_verifiers : Crypto.Keychain.verifier array;
  reg_group_secret : Crypto.Mac.key;
  reg_static_clients : (client_id * int * string) list;
}

(* State-transfer progress: which checkpoint we are pulling, from whom,
   and which pages are still outstanding. *)
type transfer_kind =
  | Demotion  (** a running replica fell behind the stable checkpoint (§2.4) *)
  | Rejoin  (** a restarted replica catching up from its disk checkpoint *)

type transfer = {
  tr_kind : transfer_kind;
  tr_attempt : int;  (** rejoin ring-rotation attempt (which peer we asked) *)
  tr_seq : seqno;
  tr_peer : replica_id;
  tr_digest : digest option;
      (** the quorum-certified checkpoint root; pages and metadata from
          the serving peer are verified against it *)
  mutable tr_leaves : digest array;
  mutable tr_wanted : int list;
  mutable tr_received : (int * string) list;
}

type retained = {
  bodies : int;
  body_arrivals : int;
  pending : int;
  in_flight : int;
  waiting : int;
  entry_requests : int;
  body_requests : int;
  log_slots : int;
  ckpt_votes : int;
}

(* A big-request body and the [seqs_executed] clock value at its latest
   arrival, which starts its age-out countdown. *)
type body = { b_rq : Message.request; b_mark : int }

type t = {
  cfg : Config.t;
  costs : Costmodel.t;
  engine : Simnet.Engine.t;
  net : Simnet.Net.t;
  cpu : Simnet.Cpu.t;
  id : replica_id;
  rng : Util.Rng.t;
  signer : Crypto.Keychain.signer;
  registry : registry;
  threshold : (Crypto.Threshold.public * Crypto.Threshold.share) option;
  service_spec : Service.t;
  service : Service.instance;
  pages : Statemgr.Pages.t;
  merkle : Statemgr.Merkle.t;
  membership : Membership.t;
  log : Log.t;
  (* Transient MAC session keys — lost on restart (§2.3). *)
  keys_i_chose : (int, Crypto.Mac.key) Hashtbl.t;
  keys_peers_chose : (int, Crypto.Mac.key) Hashtbl.t;
  keys_peers_prev : (int, Crypto.Mac.key) Hashtbl.t;
      (** previous-epoch key per sender, kept verifiable across a proactive
          refresh so in-flight authenticators survive the rollover *)
  bodies : (digest, body) Hashtbl.t;
      (** big-request bodies; [retire_through] decides when one dies *)
  body_arrivals : (int * digest) Queue.t;
      (** (arrival mark, digest) per body arrival, oldest first: the
          age-out FIFO for bodies no live log entry references *)
  pending : Message.request Queue.t;
  in_flight : (client_id * int, seqno) Hashtbl.t;  (** 0 until a pre-prepare assigns a sequence *)
  ro_replies : (client_id, int * string) Util.Lru.t;
      (** last read-only fast-path reply per client, resent on
          retransmission instead of re-executing the read. Bounded LRU
          (capacity [max_clients]) so churning clients cannot grow it
          without limit; entries also die with their session. *)
  waiting : (client_id * int, float) Hashtbl.t;  (** backup-side requests awaiting execution *)
  body_requests : (digest, unit) Hashtbl.t;
  entry_requests : (seqno, unit) Hashtbl.t;
  checkpoints : (seqno, Statemgr.Checkpoint.t) Hashtbl.t;
  pending_ckpts : (seqno, Statemgr.Checkpoint.t) Hashtbl.t;
      (** pipelined mode: snapshots taken at a checkpoint boundary during
          speculative execution, announced only when the boundary commits
          and discarded on rollback — a speculative state root must never
          enter the checkpoint vote *)
  ckpt_votes : (seqno, (replica_id, digest) Hashtbl.t) Hashtbl.t;
  vc_msgs : (view, (replica_id, Message.payload) Hashtbl.t) Hashtbl.t;
  mutable view : view;
  mutable seq_counter : seqno;
  mutable last_executed : seqno;
  mutable last_committed_exec : seqno;
  mutable undo : Statemgr.Checkpoint.undo option;
  mutable stable_ckpt : seqno;
  mutable in_view_change : bool;
  mutable vc_target : view;
  mutable watchdog : Simnet.Engine.timer option;
  mutable rebroadcast : Simnet.Engine.timer option;
  mutable status_timer : Simnet.Engine.timer option;
  mutable refresh_timer : Simnet.Engine.timer option;
  mutable key_epoch : int;  (** proactive-refresh epoch for keys I chose *)
  mutable transfer : transfer option;
  mutable disk : Statemgr.Checkpoint.t option;
      (** simulated persistent storage: the newest stable checkpoint,
          written at crash time and reloaded by [restart] so rejoin only
          fetches pages that diverged after the crash *)
  mutable last_new_view : Message.payload option;
      (** the New_view this replica emitted as primary of the current
          view, replayed to peers whose status gossip shows an older view
          (a rejoined replica cannot otherwise enter the current view) *)
  peer_views : int array;
      (** newest installed view each peer has advertised in status
          gossip. A replica adopts view [v] once f+1 distinct peers
          advertise [>= v]: at least one of them is honest, and jumping
          forward only affects liveness (safety lives in the quorum
          certificates). Without this a rejoined replica restarts at the
          view in its disk checkpoint era and has to climb to the
          cluster's view one watchdog timeout at a time, dragging the
          group through spurious view changes at every rejoin. *)
  mutable pp_scheduled : bool;
  mutable recovering : bool;
  mutable recovery_done : float option;
  mutable alive : bool;
  mutable vc_attempts : int;  (** consecutive view changes without execution progress *)
  mutable seqs_executed : int;
      (** sequence numbers executed here, re-executions after a rollback
          included; state transfers skip ahead without ticking it. The
          body age-out clock. *)
  n_exec : Util.Metrics.counter;
  n_vc : Util.Metrics.counter;
  n_auth_fail : Util.Metrics.counter;
  n_nondet_reject : Util.Metrics.counter;
  n_ckpt : Util.Metrics.counter;  (** checkpoint snapshots taken (incl. genesis & post-transfer) *)
  n_undo : Util.Metrics.counter;  (** undo snapshots taken for tentative execution *)
  n_demotions : Util.Metrics.counter;  (** checkpoint-lag demotions into state transfer (§2.4) *)
  n_demotion_transfers : Util.Metrics.counter;  (** transfers started because we fell behind *)
  n_rejoin_transfers : Util.Metrics.counter;  (** transfers started by the rejoin path *)
  n_pages_fetched : Util.Metrics.counter;  (** pages pulled over the wire by finished transfers *)
  n_pages_full : Util.Metrics.counter;  (** pages a full (non-diff) transfer would have pulled *)
  n_spec_exec : Util.Metrics.counter;  (** batches executed before their commit certificate *)
  n_rollbacks : Util.Metrics.counter;  (** rollbacks that actually undid speculative executions *)
  n_aged_out : Util.Metrics.counter;  (** bodies dropped by the age bound *)
  n_aged_unanswered : Util.Metrics.counter;
      (** of those, bodies whose request was still waiting or in flight *)
  mutable record_journal : bool;
  mutable exec_journal : (seqno * digest) list;  (** newest first; committed executions only *)
}

let id t = t.id
let view t = t.view
let is_primary t = primary_of_view ~n:t.cfg.n t.view = t.id
let last_executed t = t.last_executed
let stable_checkpoint t = t.stable_ckpt
let executed_requests t = Util.Metrics.count t.n_exec
let view_change_attempts t = t.vc_attempts
let transfer_pages_fetched t = Util.Metrics.count t.n_pages_fetched
let transfer_pages_full t = Util.Metrics.count t.n_pages_full
let signer t = t.signer
let set_record_journal t v = t.record_journal <- v
let exec_journal t = List.rev t.exec_journal

let retained (t : t) : retained =
  {
    bodies = Hashtbl.length t.bodies;
    body_arrivals = Queue.length t.body_arrivals;
    pending = Queue.length t.pending;
    in_flight = Hashtbl.length t.in_flight;
    waiting = Hashtbl.length t.waiting;
    entry_requests = Hashtbl.length t.entry_requests;
    body_requests = Hashtbl.length t.body_requests;
    log_slots = Log.length t.log;
    ckpt_votes = Hashtbl.length t.ckpt_votes;
  }

let retained_fields (x : retained) =
  [
    ("bodies", x.bodies);
    ("body arrivals", x.body_arrivals);
    ("pending", x.pending);
    ("in_flight", x.in_flight);
    ("waiting", x.waiting);
    ("entry requests", x.entry_requests);
    ("body requests", x.body_requests);
    ("log slots", x.log_slots);
    ("checkpoint vote sets", x.ckpt_votes);
  ]

let holds_body t d = Hashtbl.mem t.bodies d

let journal_commit t seq digest =
  if t.record_journal then t.exec_journal <- (seq, digest) :: t.exec_journal
let cpu t = t.cpu
let pages t = t.pages
let membership t = t.membership
let is_recovering t = t.recovering
let recovery_completed_at t = t.recovery_done
let now t = Simnet.Engine.now t.engine

(* Execution resumed after a restart: note when, once. *)
let note_caught_up t = if t.recovering && t.recovery_done = None then t.recovery_done <- Some (now t)

(* ------------------------------------------------------------------ *)
(* Middleware partition: page 0 holds the serialized membership table.  *)

let mid_partition_pages = 4

let sync_membership_to_pages t =
  let image = Membership.serialize t.membership in
  let cap = mid_partition_pages * Statemgr.Pages.page_size t.pages in
  if String.length image + 8 > cap then failwith "middleware partition full";
  Statemgr.Pages.notify_modify t.pages ~pos:0 ~len:(8 + String.length image);
  Statemgr.Pages.write t.pages ~pos:0 (Printf.sprintf "%07d " (String.length image));
  Statemgr.Pages.write t.pages ~pos:8 image

let load_membership_from_pages t =
  let hdr = Statemgr.Pages.read t.pages ~pos:0 ~len:8 in
  match int_of_string_opt (String.trim hdr) with
  | Some len when len > 0 ->
    Membership.load t.membership (Statemgr.Pages.read t.pages ~pos:8 ~len)
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Cost accounting helpers.                                             *)

let send_cost t bytes = Costmodel.send t.costs bytes
let recv_cost t bytes = Costmodel.recv t.costs bytes
let charge t cost k = Simnet.Cpu.execute t.cpu ~cost k

(* Pipelined mode: prepared-but-uncommitted batches execute speculatively
   and consecutive batches overlap across the agreement phases. *)
let pipelined t = t.cfg.pipeline_depth > 1

(* ------------------------------------------------------------------ *)
(* Authentication.                                                      *)

(* The other replicas, in id order. *)
let peers t = List.filter (fun peer -> peer <> t.id) (List.init t.cfg.n Fun.id)

(* One authenticator (a tag per peer whose key is known), or a signature. *)
let multicast_sealer t =
  if t.cfg.use_macs then
    Message.Macs
      (List.filter_map
         (fun peer -> Option.map (fun k -> (peer, k)) (Hashtbl.find_opt t.keys_i_chose peer))
         (peers t))
  else Message.Sign t.signer

(* The key a message to [dst] alone is MACed under: the one this replica
   chose for a peer replica, or the one a client sent in its Session_key.
   None in signature mode or while no key is known. *)
let session_key_to t dst =
  if not t.cfg.use_macs then None
  else Hashtbl.find_opt (if dst < t.cfg.n then t.keys_i_chose else t.keys_peers_chose) dst

let authenticate_to t ~dst =
  match session_key_to t dst with
  | Some k -> Message.Macs [ (dst, k) ]
  | None -> Message.Sign t.signer

(* What [authenticate_to] costs: one MAC tag, or one signature. *)
let auth_cost_to t ~dst =
  if Option.is_some (session_key_to t dst) then t.costs.mac_gen else t.costs.sign

let verifier_for_addr t addr =
  if addr < t.cfg.n then Some t.registry.reg_verifiers.(addr)
  else begin
    match Membership.lookup_addr t.membership addr with
    | None -> None
    | Some client -> begin
      match Membership.lookup t.membership client with
      | None -> None
      | Some e -> Crypto.Keychain.verifier_of_string e.me_pubkey
    end
  end

(* Verify an incoming message's authentication; returns the CPU cost to
   charge along with the verdict. Missing MAC session keys are the §2.3
   recovery stall: the message cannot be validated at all. A tag the
   sender's note shows it computed under the key held here for it is
   accepted without rehashing ([Authenticator.check]'s [sender_keys]);
   the cost charged is the same. *)
let check_auth t ~src ({ msg; frame; pb_pos = pos; pb_len = len; mac_keys } : Message.framed) =
  match msg.auth with
  | Message.No_auth -> (0.0, false)
  | Message.Signed s -> begin
    (* Pre-join messages are self-certified by an embedded public key. *)
    let v =
      match msg.payload with
      | Message.Join_request { j_pubkey; _ } -> Crypto.Keychain.verifier_of_string j_pubkey
      | Message.Join_response { jr_pubkey; _ } -> Crypto.Keychain.verifier_of_string jr_pubkey
      | _ -> verifier_for_addr t src
    in
    match v with
    | None -> (t.costs.sig_verify, false)
    | Some v -> (t.costs.sig_verify, Crypto.Keychain.verify v ~pos ~len frame ~signature:s)
  end
  | Message.Authenticated a -> begin
    let check key =
      Crypto.Authenticator.check ~key ~replica:t.id ~sender_keys:mac_keys ~pos ~len frame a
    in
    match Hashtbl.find_opt t.keys_peers_chose src with
    | Some key when check key -> (t.costs.mac_verify, true)
    | Some _ -> begin
      (* Proactive-refresh rollover window: messages in flight across the
         epoch boundary still carry the previous key's tag. *)
      match Hashtbl.find_opt t.keys_peers_prev src with
      | Some key -> (t.costs.mac_verify, check key)
      | None -> (t.costs.mac_verify, false)
    end
    | None -> (0.0, false)
  end

(* ------------------------------------------------------------------ *)
(* Sending.                                                             *)

(* Encode-once: the wire bytes are built by the caller (serializing the
   payload a single time even for a multicast) and only the send cost and
   trace metadata are handled here. *)
let send_wire t ~dst ~already_charged ~label ~detail ~note wire =
  let go () = Simnet.Net.send t.net ~label ~detail ~note ~src:t.id ~dst wire in
  if already_charged then go () else charge t (send_cost t (String.length wire)) go

(* The wire bytes of [payload] sealed by [sealer], and the note that
   spares a receiver the decode and the tags made under its keys. *)
let frame payload sealer =
  let framed = Message.seal payload sealer in
  (framed.frame, Message.Framed framed)

let send_to t ?(already_charged = false) ~dst payload =
  let wire, note = frame payload (authenticate_to t ~dst) in
  let label = Message.label payload in
  let detail () = Message.describe payload in
  if already_charged then send_wire t ~dst ~already_charged:true ~label ~detail ~note wire
  else
    charge t (auth_cost_to t ~dst) (fun () ->
        send_wire t ~dst ~already_charged:false ~label ~detail ~note wire)

let multicast_replicas t ?(already_charged = false) payload =
  (* One authenticator (all n−1 MAC tags), wire string and note serve
     every peer. *)
  let wire, note = frame payload (multicast_sealer t) in
  let label = Message.label payload in
  let detail () = Message.describe payload in
  let go () =
    List.iter (fun dst -> send_wire t ~dst ~already_charged ~label ~detail ~note wire) (peers t)
  in
  if already_charged then go ()
  else Simnet.Cpu.execute_split t.cpu ~costs:(Costmodel.auth_gen_costs t.costs t.cfg) go

(* Key establishment always uses signatures (the MAC keys are what is
   being distributed): one signature covers every destination. *)
let send_signed t ~dsts payload =
  let framed = Message.seal payload (Message.Sign t.signer) in
  let wire = framed.frame and note = Message.Framed framed in
  let label = Message.label payload in
  let detail () = Message.describe payload in
  charge t
    (t.costs.sign +. send_cost t ((framed.pb_len + 80) * List.length dsts))
    (fun () ->
      List.iter (fun dst -> send_wire t ~dst ~already_charged:true ~label ~detail ~note wire) dsts)

(* ------------------------------------------------------------------ *)
(* Session keys.                                                        *)

let install_session_key t ~addr key =
  (match Hashtbl.find_opt t.keys_peers_chose addr with
  | Some old when not (Crypto.Mac.equal_key old key) ->
    (* Epoch rollover: keep the outgoing key verifiable until traffic
       MACed under it drains. *)
    Hashtbl.replace t.keys_peers_prev addr old
  | Some _ | None -> ());
  Hashtbl.replace t.keys_peers_chose addr key

let send_session_key t peer =
  let key =
    match Hashtbl.find_opt t.keys_i_chose peer with
    | Some k -> k
    | None ->
      (* Epoch 0 keys are drawn from the deterministic RNG stream exactly
         as they always were; refreshed epochs are derived from signer
         material instead, so enabling refresh consumes no randomness. *)
      let k =
        if t.key_epoch > 0 then
          Crypto.Keychain.derive_session_key t.signer ~peer ~epoch:t.key_epoch
        else Crypto.Mac.fresh_key t.rng
      in
      Hashtbl.replace t.keys_i_chose peer k;
      k
  in
  send_signed t ~dsts:[ peer ]
    (Message.Session_key
       { sk_sender = t.id; sk_target = peer; sk_key_box = Crypto.Mac.key_bytes key })

let broadcast_session_keys t = List.iter (send_session_key t) (peers t)

(* Proactive key refresh (on the virtual clock): advance the epoch,
   re-derive every outbound session key, and rebroadcast. Bounds the
   useful lifetime of a stolen authenticator key without perturbing the
   RNG stream (epoch keys are derived, not drawn). *)
let refresh_session_keys t =
  t.key_epoch <- t.key_epoch + 1;
  List.iter
    (fun peer ->
      Hashtbl.replace t.keys_i_chose peer
        (Crypto.Keychain.derive_session_key t.signer ~peer ~epoch:t.key_epoch))
    (peers t);
  broadcast_session_keys t

(* §2.3 remedy (gated by [rejoin_key_refresh]): a restarted replica lost
   every key its peers chose for it, so it multicasts a signed
   Key_request; each peer answers with its Session_key immediately
   instead of recovery stalling until the next blind rebroadcast. *)
let request_session_keys t = send_signed t ~dsts:(peers t) (Message.Key_request { kq_replica = t.id })

(* ------------------------------------------------------------------ *)
(* Request bodies.                                                      *)

(* Every arrival (re)starts the body's age-out countdown. *)
let store_body t d rq =
  Hashtbl.replace t.bodies d { b_rq = rq; b_mark = t.seqs_executed };
  Queue.push (t.seqs_executed, d) t.body_arrivals

let find_body t d = Option.map (fun b -> b.b_rq) (Hashtbl.find_opt t.bodies d)

(* A body that no live log entry references is dropped once this replica
   has executed [log_window] further sequence numbers since it last
   arrived: the request was answered, its client left, or it was never
   ordered. A FIFO entry whose body has since re-arrived (newer mark) or
   died is stale and skipped; a body a live entry still references is
   re-armed instead, and the watermark retires it with that entry. *)
let age_out_bodies t ~still_live =
  let rec go () =
    match Queue.peek_opt t.body_arrivals with
    | Some (mark, d) when mark + t.cfg.log_window <= t.seqs_executed ->
      ignore (Queue.pop t.body_arrivals);
      (match Hashtbl.find_opt t.bodies d with
      | Some b when b.b_mark = mark ->
        if still_live d then store_body t d b.b_rq
        else begin
          Hashtbl.remove t.bodies d;
          Util.Metrics.incr t.n_aged_out;
          let key = (b.b_rq.rq_client, b.b_rq.rq_id) in
          if Hashtbl.mem t.waiting key || Hashtbl.mem t.in_flight key then
            Util.Metrics.incr t.n_aged_unanswered
        end
      | Some _ | None -> ());
      go ()
    | Some _ | None -> ()
  in
  go ()

(* Everything at or below a new stable point goes: log slots, the bodies
   only those slots referenced, and outstanding entry fetches. View-change
   O-sets, §2.4 body refetch and rejoin replay only reach above it. *)
let retire_through t seq =
  let retired = Log.set_low_watermark t.log seq in
  List.iter (Hashtbl.remove t.bodies) retired.orphaned;
  List.iter
    (fun s -> if s <= seq then Hashtbl.remove t.entry_requests s)
    (Util.Sorted_tbl.keys t.entry_requests);
  age_out_bodies t ~still_live:retired.still_live

(* Fold the dirty pages into the Merkle tree and take a COW snapshot. *)
let snapshot t ~seqno =
  Statemgr.Merkle.update t.merkle t.pages (Statemgr.Pages.dirty t.pages);
  Statemgr.Pages.clear_dirty t.pages;
  Statemgr.Checkpoint.take ~seqno t.pages t.merkle

(* Register the current state as our own checkpoint at [seq], so we can
   vote for it and serve transfers from it. *)
let register_checkpoint t seq =
  Util.Metrics.incr t.n_ckpt;
  Hashtbl.replace t.checkpoints seq (snapshot t ~seqno:seq)

(* Pages of a transfer not yet received. *)
let missing_pages tr =
  List.filter (fun w -> not (List.mem_assoc w tr.tr_received)) tr.tr_wanted

(* The vote set for [key], created on first use. *)
let votes_for tbl key =
  match Hashtbl.find_opt tbl key with
  | Some votes -> votes
  | None ->
    let votes = Hashtbl.create 8 in
    Hashtbl.add tbl key votes;
    votes

(* Write a proposal into its log slot. *)
let set_proposal (e : Log.entry) ~view ~batch ~nondet ~digest =
  e.pp_view <- view;
  e.batch <- Some batch;
  e.nondet <- nondet;
  e.batch_digest <- digest

(* The agreement messages for a log slot, built from what it holds. *)
let pre_prepare_of (e : Log.entry) =
  Message.Pre_prepare
    { pp_view = e.pp_view; pp_seq = e.seq; pp_batch = Option.value ~default:[] e.batch;
      pp_nondet = e.nondet }

let prepare_of t (e : Log.entry) =
  Message.Prepare { p_view = e.pp_view; p_seq = e.seq; p_digest = e.batch_digest; p_replica = t.id }

let commit_of t (e : Log.entry) =
  Message.Commit { c_view = e.pp_view; c_seq = e.seq; c_digest = e.batch_digest; c_replica = t.id }

(* ------------------------------------------------------------------ *)
(* Watchdog (view-change timer).                                        *)

(* PBFT's exponential backoff: the effective timeout doubles for every
   consecutive view change that produced no execution progress and
   resets once a request commits. Without it, back-to-back faulty
   primaries livelock the group — each view change fires on the same
   fixed timer before the previous one can complete. *)
let vc_timeout t = t.cfg.view_change_timeout *. float_of_int (1 lsl Int.min t.vc_attempts 16)

let cancel_watchdog t =
  Option.iter Simnet.Engine.cancel t.watchdog;
  t.watchdog <- None

let rec arm_watchdog t =
  match t.watchdog with
  | Some _ -> ()
  | None ->
    if Hashtbl.length t.waiting > 0 && not t.in_view_change then begin
      let timer =
        Simnet.Engine.timer t.engine ~delay:(vc_timeout t) (fun () ->
            t.watchdog <- None;
            if t.alive then check_watchdog t)
      in
      t.watchdog <- Some timer
    end

(* Put a request on the watchdog's ledger, stamped now, and arm the
   watchdog; false if the request was already there. *)
and await t key =
  let fresh = not (Hashtbl.mem t.waiting key) in
  if fresh then begin
    Hashtbl.replace t.waiting key (now t);
    arm_watchdog t
  end;
  fresh

and check_watchdog t =
  (* Order-free: Float.min is commutative and the timestamps carry no NaN. *)
  let[@detlint.allow hashtbl_order] oldest =
    Hashtbl.fold (fun _ ts acc -> Float.min ts acc) t.waiting infinity
  in
  if t.recovering then
    (* A replaying replica cannot tell starvation from its own lag: its
       waiting ledger fills with requests the group already served while
       it was down. Keep the timer ticking but leave escalation to the
       2f+1 healthy replicas; we adopt whatever view they install. *)
    arm_watchdog t
  else if oldest +. vc_timeout t <= now t +. 1e-9 && not t.in_view_change then
    start_view_change t (t.view + 1)
  else arm_watchdog t

(* ------------------------------------------------------------------ *)
(* Execution.                                                           *)

and resolve_item t (item : Message.batch_item) =
  match item with
  | Message.Full rq -> Some rq
  | Message.Digest_of d -> find_body t d.bd_digest

(* Execute one request within a batch. Returns the reply payload and the
   virtual cost of the execution itself. *)
and execute_request t rq ~nondet ~tentative ~speculative =
  let ts = Option.value ~default:(now t) (Nondet.timestamp nondet) in
  let result, cost =
    if String.length rq.Message.rq_op > 0 && rq.Message.rq_op.[0] = '\x01' then
      (execute_system_op t rq ~ts, t.costs.exec_null)
    else
      t.service.execute ~op:rq.rq_op ~client:rq.rq_client ~timestamp:ts ~nondet
        ~readonly:rq.rq_readonly
  in
  Membership.touch t.membership rq.rq_client ts;
  Log.cache_reply t.log rq.rq_client
    { cr_id = rq.rq_id; cr_result = result; cr_view = t.view; cr_tentative = tentative;
      cr_timestamp = ts; cr_speculative = speculative };
  Hashtbl.remove t.in_flight (rq.rq_client, rq.rq_id);
  (* A speculative execution has not satisfied the client — its reply is
     withheld until the commit certificate lands — so the request stays on
     the view-change watchdog's ledger until then (advance_committed
     clears it). Otherwise a primary that starves commits while feeding
     prepares would never be voted out. *)
  if not speculative then Hashtbl.remove t.waiting (rq.rq_client, rq.rq_id);
  (result, cost, ts)

(* System operations ordered through the normal request path (§3.1):
   "\x01J..." = join, "\x01L..." = leave. *)
and execute_system_op t rq ~ts =
  let r = Util.Codec.R.of_string (String.sub rq.rq_op 1 (String.length rq.rq_op - 1)) in
  try
    let kind = Util.Codec.R.u8 r in
    if kind = Char.code 'J' then begin
      let addr = Util.Codec.R.varint r in
      let pubkey = Util.Codec.R.lstring r in
      let idbuf = Util.Codec.R.lstring r in
      match t.service.authorize_join ~idbuf with
      | None ->
        send_join_reply t ~addr ~client:0 ~ok:false;
        "join-denied"
      | Some identity -> begin
        match
          (Membership.join t.membership ~addr ~pubkey ~identity ~now:ts
             ~stale_threshold:t.cfg.session_stale_threshold)
          [@trustlint.allow
            "the join executes only as an agreed, ordered system operation: \
             check_auth verified the Join_request's session-key MAC at intake \
             and authorize_join vouched for the identification buffer"]
        with
        | Membership.Table_full ->
          send_join_reply t ~addr ~client:0 ~ok:false;
          "join-full"
        | Membership.Joined { client; terminated } ->
          List.iter
            (fun c ->
              Log.drop_client t.log c;
              Util.Lru.remove t.ro_replies c;
              t.service.on_session_end c)
            terminated;
          sync_membership_to_pages t;
          send_join_reply t ~addr ~client ~ok:true;
          Printf.sprintf "joined:%d" client
      end
    end
    else if kind = Char.code 'L' then begin
      let client = Util.Codec.R.varint r in
      let ok =
        (Membership.leave t.membership client)
        [@trustlint.allow
          "the leave executes only as an agreed, ordered system operation: \
           check_auth verified the departing client's own MAC at intake, so \
           only the session owner can order its removal"]
      in
      if ok then begin
        (Log.drop_client t.log client)
        [@trustlint.allow
          "part of the same agreed leave: dropping the departing client's \
           reply-cache entry is the ordered session teardown"];
        Util.Lru.remove t.ro_replies client;
        t.service.on_session_end client;
        sync_membership_to_pages t;
        "left"
      end
      else "error: unknown client"
    end
    else "error: unknown system op"
  with Util.Codec.R.Truncated -> "error: bad system op"

and send_join_reply t ~addr ~client ~ok =
  send_to t ~dst:addr (Message.Join_reply { jl_replica = t.id; jl_client = client; jl_ok = ok })

and send_reply t rq ~result ~tentative ~already_charged =
  match Membership.lookup t.membership rq.Message.rq_client with
  | None -> ()
  | Some { me_addr = addr; _ } ->
    let r_partial =
      match t.threshold with
      | None -> None
      | Some (pk, share) ->
        Some
          (Certificate.partial pk share ~client:rq.Message.rq_client ~rq_id:rq.rq_id ~result)
    in
    send_to t ~already_charged ~dst:addr
      (Message.Reply
         {
           r_view = t.view;
           r_client = rq.rq_client;
           r_id = rq.rq_id;
           r_replica = t.id;
           r_result = result;
           r_tentative = tentative;
           r_partial;
         })

and snapshot_state t =
  (* The Merkle leaf rehash is per-page work occupying the cores. *)
  let dirty = Statemgr.Pages.dirty t.pages in
  if dirty <> [] then
    Simnet.Cpu.execute_split t.cpu ~costs:(List.map (fun _ -> t.costs.merkle_leaf) dirty) ignore;
  snapshot t ~seqno:t.last_executed

and announce_checkpoint t ~seq ck =
  Util.Metrics.incr t.n_ckpt;
  Hashtbl.replace t.checkpoints seq ck;
  let root = Statemgr.Checkpoint.root ck in
  record_ckpt_vote t ~seq ~replica:t.id ~digest:root;
  multicast_replicas t (Message.Checkpoint_msg { ck_seq = seq; ck_digest = root; ck_replica = t.id });
  check_ckpt_stable t seq

and take_checkpoint t = announce_checkpoint t ~seq:t.last_executed (snapshot_state t)

(* Pipelined mode hits checkpoint boundaries while the boundary sequence
   is still speculative: snapshot now (COW, near-free), announce only when
   the commit certificate lands — a speculative root must never be voted. *)
and take_pending_checkpoint t =
  Hashtbl.replace t.pending_ckpts t.last_executed (snapshot_state t)

and record_ckpt_vote t ~seq ~replica ~digest =
  Hashtbl.replace (votes_for t.ckpt_votes seq) replica digest

and check_ckpt_stable t seq =
  match Hashtbl.find_opt t.ckpt_votes seq with
  | None -> ()
  | Some votes ->
    (* Majority digest among votes. Counting is order-free; the winner
       pick is not (count ties), so it traverses in digest order. *)
    let counts = Hashtbl.create 4 in
    (Hashtbl.iter
       (fun _ d ->
         Hashtbl.replace counts d (1 + Option.value ~default:0 (Hashtbl.find_opt counts d)))
       votes
     [@detlint.allow hashtbl_order]);
    let best =
      Util.Sorted_tbl.fold (fun d c acc ->
          match acc with Some (_, c') when c' >= c -> acc | _ -> Some (d, c)) counts None
    in
    (match best with
    | Some (digest, count) when count >= quorum_2f1 ~f:t.cfg.f ->
      if seq > t.stable_ckpt then begin
        t.stable_ckpt <- seq;
        retire_through t seq;
        (* Drop older snapshots and vote sets. *)
        List.iter
          (fun s -> if s < seq then Hashtbl.remove t.checkpoints s)
          (Util.Sorted_tbl.keys t.checkpoints);
        List.iter
          (fun s -> if s < seq then Hashtbl.remove t.ckpt_votes s)
          (Util.Sorted_tbl.keys t.ckpt_votes);
        (* The high-water mark just moved: a primary that stalled its
           pipeline against it can propose again. *)
        if is_primary t then try_emit_pre_prepare t
      end;
      (* Recovery ends when the group certifies state we executed
         ourselves: our checkpoint digest sits inside a 2f+1 quorum at
         or beyond the rejoin point. Until then the replica stays in
         recovery mode (§2.5 lenient replay validation, body fetching
         for the replay region). The flag is volatile and set only by
         [restart], so healthy replicas never enter here. *)
      if
        t.recovering && t.last_executed >= seq
        && match Hashtbl.find_opt votes t.id with
           | Some d -> String.equal d digest
           | None -> false
      then t.recovering <- false;
      (* The quorum is a commit proof for the whole prefix. A replica
         that executed through [seq] tentatively while its committed
         prefix is stuck below — the commit certificates for a gap the
         log has since truncated can never arrive — would otherwise
         speculate unboundedly far ahead of a frozen [last_committed_exec]
         and lose the entire span to the next view change's rollback. If
         our state at the boundary matches the certified digest, the
         tentative prefix IS the committed history: finalize it. If it
         does not match, we diverged — discard the speculation and let
         the demotion branch below transfer the certified state. *)
      if t.last_committed_exec < seq && t.last_executed >= seq then begin
        let deferred = Hashtbl.find_opt t.pending_ckpts seq in
        match if Option.is_some deferred then deferred else Hashtbl.find_opt t.checkpoints seq with
        | Some ck when String.equal (Statemgr.Checkpoint.root ck) digest ->
          let lo = t.last_committed_exec in
          t.last_committed_exec <- seq;
          List.iter
            (fun (e : Log.entry) ->
              if e.seq > lo && e.seq <= seq && (e.executed || e.tentatively_executed) then
                finalize t e)
            (Log.entries_between t.log ~lo ~hi:seq);
          announce_deferred t seq;
          advance_committed t;
          (* The undo snapshot predates the finalized prefix; a later
             rollback restoring it would drag committed state backwards.
             The certified checkpoint is the new rollback floor for
             whatever speculation still runs ahead of it. *)
          if t.last_committed_exec < t.last_executed then
            t.undo <- Some (Statemgr.Checkpoint.undo_of ck)
        | Some _ ->
          rollback_tentative t
        | None -> ()
      end;
      (* A replica that is behind this stable checkpoint — because it
         lagged or is stuck on a missing big-request body (§2.4) — now
         recovers by state transfer. *)
      if t.last_executed < seq && t.transfer = None then begin
        let holder =
          Util.Sorted_tbl.fold
            (fun r d acc -> if String.equal d digest && r <> t.id then Some r else acc)
            votes None
        in
        match holder with
        | Some peer ->
          Util.Metrics.incr t.n_demotions;
          start_state_transfer t ~kind:Demotion ~seq ~peer ~digest:(Some digest) ()
        | None -> ()
      end
    | Some _ | None -> ())

and start_state_transfer t ~kind ?(attempt = 0) ~seq ~peer ~digest () =
  let tr =
    { tr_kind = kind; tr_attempt = attempt; tr_seq = seq; tr_peer = peer; tr_digest = digest;
      tr_leaves = [||]; tr_wanted = []; tr_received = [] }
  in
  t.transfer <- Some tr;
  (match kind with
  | Demotion -> Util.Metrics.incr t.n_demotion_transfers
  | Rejoin -> Util.Metrics.incr t.n_rejoin_transfers);
  fetch_meta t tr;
  arm_transfer_retry t

(* fm_seq = 0 asks for the peer's latest stable checkpoint (the rejoin
   path, which does not know how far the group has advanced). *)
and fetch_meta t tr =
  send_to t ~dst:tr.tr_peer (Message.Fetch_meta { fm_seq = Int.max 0 tr.tr_seq; fm_replica = t.id })

(* Rejoin after restart: pull the latest stable checkpoint from peers in
   ring order, starting just after ourselves and rotating on a peer that
   turns out to be no further along than our disk image. *)
and start_rejoin_transfer t ~attempt =
  if t.alive && t.transfer = None then begin
    let peer = (t.id + 1 + attempt) mod t.cfg.n in
    if peer <> t.id then
      start_state_transfer t ~kind:Rejoin ~attempt ~seq:(-1) ~peer ~digest:None ()
  end

(* Fetches are plain datagrams; when they or their replies are lost — or
   cannot be authenticated yet, the §2.3 stall — the transfer must be
   re-driven periodically. *)
and arm_transfer_retry t =
  let _ =
    Simnet.Engine.timer t.engine ~delay:0.5 (fun () ->
        if t.alive then begin
          match t.transfer with
          | None -> ()
          | Some tr ->
            (if tr.tr_wanted = [] then fetch_meta t tr
             else
               List.iter
                 (fun page ->
                   send_to t ~dst:tr.tr_peer
                     (Message.Fetch_pages { fp_seq = tr.tr_seq; fp_pages = [ page ]; fp_replica = t.id }))
                 (missing_pages tr));
            arm_transfer_retry t
        end)
  in
  ()

(* Finalize committed prefixes of the tentative executions: entries at or
   below last_executed that have since committed become stable, and once
   nothing speculative remains the undo snapshot is dropped. *)
and advance_committed t =
  let progress = ref true in
  while !progress do
    progress := false;
    let next = t.last_committed_exec + 1 in
    if next <= t.last_executed then begin
      match Log.find t.log next with
      | Some e when e.committed && (e.executed || e.tentatively_executed) ->
        t.last_committed_exec <- next;
        finalize t e;
        announce_deferred t next;
        progress := true
      | Some _ | None -> ()
    end
  done;
  if t.last_committed_exec >= t.last_executed then t.undo <- None

(* An executed entry's commit certificate landed: journal it, take its
   requests off the waiting ledger, and make its replies stable. Serial
   tentative execution already sent the reply marked tentative and cached
   it that way, so the cached copy turns stable — otherwise a client
   facing f mute replicas can collect 2f tentative + 1 stale-stable
   replies forever and reach neither quorum. Pipelined speculation
   withheld its replies: they go out now, stable. *)
and finalize t (e : Log.entry) =
  if not e.executed then journal_commit t e.seq e.batch_digest;
  e.executed <- true;
  List.iter
    (fun it ->
      let ((client, id) as key) = Message.batch_item_client_id it in
      Hashtbl.remove t.waiting key;
      match Log.cached_reply t.log client with
      | Some cr when cr.cr_id = id && cr.cr_tentative && not cr.cr_speculative ->
        Log.cache_reply t.log client { cr with cr_tentative = false }
      | Some _ | None -> ())
    (Option.value ~default:[] e.batch);
  let pending = e.pending_replies in
  e.pending_replies <- [];
  List.iter
    (fun ((rq : Message.request), result, ts) ->
      Log.cache_reply t.log rq.rq_client
        { cr_id = rq.rq_id; cr_result = result; cr_view = t.view; cr_tentative = false;
          cr_timestamp = ts; cr_speculative = false })
    pending;
  if pending <> [] then send_replies t ~cost:0.0 ~tentative:false pending

(* A checkpoint deferred at [seq] is announced once [seq] commits. *)
and announce_deferred t seq =
  match Hashtbl.find_opt t.pending_ckpts seq with
  | Some ck ->
    Hashtbl.remove t.pending_ckpts seq;
    announce_checkpoint t ~seq ck
  | None -> ()

(* Reply I/O and authentication, charged as one block on top of [cost]:
   per reply the threshold partial, one MAC or signature, the send. *)
and send_replies t ~cost ~tentative replies =
  let partial_cost = match t.threshold with Some _ -> t.costs.sign | None -> 0.0 in
  let reply_cost ((rq : Message.request), result, _) =
    match Membership.lookup t.membership rq.rq_client with
    | None -> 0.0
    | Some { me_addr = dst; _ } ->
      partial_cost +. auth_cost_to t ~dst +. send_cost t (String.length result + 64)
  in
  let total = List.fold_left (fun acc reply -> acc +. reply_cost reply) cost replies in
  charge t total (fun () ->
      List.iter
        (fun (rq, result, _) -> send_reply t rq ~result ~tentative ~already_charged:true)
        replies)

(* Try to execute everything executable in sequence order. *)
and try_execute t =
  let progress = ref true in
  while !progress do
    progress := false;
    let next = t.last_executed + 1 in
    match Log.find t.log next with
    | None -> ()
    | Some entry ->
      let can_stable = entry.committed in
      let can_tentative = entry.prepared && not t.in_view_change in
      if (can_stable || can_tentative) && not entry.executed then begin
        match entry.batch with
        | None -> ()
        | Some items ->
          (* All big-request bodies must be present (§2.4). *)
          let resolved = List.map (fun it -> (it, resolve_item t it)) items in
          let missing =
            List.filter_map
              (fun (it, r) -> if r = None then Some (Message.batch_item_digest it) else None)
              resolved
          in
          if missing <> [] then begin
            entry.missing_bodies <- missing;
            (* §2.4 remedy, off by default: ask peers for the bodies
               instead of stalling until the next checkpoint. A
               recovering replica fetches regardless of the gate — its
               bodies table died with the old incarnation and the
               clients that multicast those bodies were answered long
               ago and will never retransmit, so for the replay region
               between the rejoin checkpoint and the live head the
               stall is not a lag, it is a permanent wedge. *)
            if t.cfg.fetch_missing_bodies || t.recovering then
              List.iter
                (fun d ->
                  if not (Hashtbl.mem t.body_requests d) then begin
                    Hashtbl.replace t.body_requests d ();
                    List.iter
                      (fun dst ->
                        send_to t ~dst (Message.Fetch_body { fb_digest = d; fb_replica = t.id }))
                      (peers t)
                  end)
                missing
          end
          else begin
            entry.missing_bodies <- [];
            let tentative = (not can_stable) && can_tentative in
            let speculative = tentative && pipelined t in
            begin
              if tentative && t.undo = None then begin
                (* Snapshot for rollback before speculative execution. *)
                Util.Metrics.incr t.n_undo;
                t.undo <- Some (Statemgr.Checkpoint.take_undo t.pages)
              end;
              let total_cost = ref t.costs.log_bookkeeping in
              if speculative then total_cost := !total_cost +. t.costs.spec_overhead;
              let replies = ref [] in
              List.iter
                (fun (_, r) ->
                  match r with
                  | None -> ()
                  | Some rq ->
                    let result, cost, ts =
                      execute_request t rq ~nondet:entry.nondet ~tentative ~speculative
                    in
                    total_cost := !total_cost +. cost;
                    if rq.Message.rq_client > 0 then replies := (rq, result, ts) :: !replies)
                resolved;
              if speculative then begin
                (* Replies are withheld until the commit certificate lands
                   ([finalize]); only the execution is charged now. *)
                entry.pending_replies <- List.rev !replies;
                charge t !total_cost (fun () -> ())
              end
              else
                send_replies t ~cost:!total_cost ~tentative (List.rev !replies);
              if tentative then begin
                entry.tentatively_executed <- true;
                Util.Metrics.incr t.n_spec_exec
              end
              else begin
                entry.executed <- true;
                journal_commit t next entry.batch_digest;
                if t.last_committed_exec = next - 1 then t.last_committed_exec <- next
              end;
              t.last_executed <- next;
              t.seqs_executed <- t.seqs_executed + 1;
              Util.Metrics.add t.n_exec (List.length items);
              t.vc_attempts <- 0;
              note_caught_up t;
              if t.last_executed mod t.cfg.checkpoint_interval = 0 then begin
                (* A boundary whose state still contains uncommitted
                   speculation must not be voted; snapshot and defer. *)
                if pipelined t && t.last_committed_exec < t.last_executed then
                  take_pending_checkpoint t
                else take_checkpoint t
              end;
              progress := true
            end
          end
      end
  done;
  advance_committed t;
  if Hashtbl.length t.waiting = 0 then begin
    cancel_watchdog t;
    (* A view change we started alone (no quorum joined) is abandoned once
       everything we were waiting for has executed in the current view. *)
    if t.in_view_change && primary_of_view ~n:t.cfg.n t.vc_target <> t.id then begin
      t.in_view_change <- false;
      t.vc_target <- t.view
    end
  end;
  if is_primary t then try_emit_pre_prepare t

(* ------------------------------------------------------------------ *)
(* Primary: ordering.                                                   *)

and try_emit_pre_prepare t =
  if (not t.in_view_change) && is_primary t then begin
    if t.cfg.batching && t.cfg.batch_delay > 0.0 then begin
      (* Linger briefly once the window frees so straggling requests make
         this batch instead of riding a singleton agreement round. *)
      if
        (not t.pp_scheduled)
        && t.seq_counter - t.last_executed < t.cfg.congestion_window * t.cfg.pipeline_depth
        && not (Queue.is_empty t.pending)
      then begin
        t.pp_scheduled <- true;
        Simnet.Engine.schedule t.engine ~delay:t.cfg.batch_delay (fun () ->
            t.pp_scheduled <- false;
            if t.alive then emit_pre_prepares t)
      end
    end
    else emit_pre_prepares t
  end

and emit_pre_prepares t =
  if (not t.in_view_change) && is_primary t then begin
    let continue = ref true in
    while !continue do
      continue := false;
      (* The pipeline widens the agreement window: with depth k the
         primary keeps k congestion windows of batches in flight across
         the three phases instead of serializing on execution. *)
      let outstanding = t.seq_counter - t.last_executed in
      if
        outstanding < t.cfg.congestion_window * t.cfg.pipeline_depth
        (* Never propose past the high-water mark: backups drop such
           pre-prepares outright (§2.4 log window), so a deep pipeline
           whose checkpoint votes are still in flight must stall here
           until the boundary stabilizes, not spray doomed proposals. *)
        && t.seq_counter < Log.low_watermark t.log + t.cfg.log_window
        && not (Queue.is_empty t.pending)
      then begin
        let batch = ref [] in
        let bytes = ref 0 in
        let take_one () =
          let rq = Queue.pop t.pending in
          let item =
            if Config.is_big_request t.cfg rq.Message.rq_op then begin
              let d = Message.request_digest rq in
              (* Normally still held from intake; re-store one the age
                 bound took while the request queued. *)
              if not (Hashtbl.mem t.bodies d) then store_body t d rq;
              Message.Digest_of
                {
                  bd_client = rq.rq_client;
                  bd_id = rq.rq_id;
                  bd_digest = d;
                  bd_readonly = rq.rq_readonly;
                }
            end
            else Message.Full rq
          in
          let item_bytes =
            match item with Message.Digest_of _ -> 80 | Message.Full _ -> String.length rq.Message.rq_op + 64
          in
          bytes := !bytes + item_bytes;
          batch := item :: !batch
        in
        take_one ();
        if t.cfg.batching then begin
          while (not (Queue.is_empty t.pending)) && !bytes < Config.max_batch_bytes do
            take_one ()
          done
        end;
        let items = List.rev !batch in
        t.seq_counter <- t.seq_counter + 1;
        let seq = t.seq_counter in
        let entry = Log.entry t.log seq in
        set_proposal entry ~view:t.view ~batch:items ~nondet:(Nondet.produce ~now:(now t) t.rng)
          ~digest:(Message.batch_digest items);
        List.iter
          (fun item -> Hashtbl.replace t.in_flight (Message.batch_item_client_id item) seq)
          items;
        Log.record_prepare entry t.id;
        let payload = pre_prepare_of entry in
        let digest_costs =
          List.map
            (fun it ->
              Costmodel.digest t.costs
                (match it with
                | Message.Full rq -> String.length rq.rq_op
                | Message.Digest_of _ -> 32))
            items
        in
        Simnet.Cpu.execute_split t.cpu ~costs:digest_costs (fun () -> multicast_replicas t payload);
        continue := true
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Request intake.                                                      *)

and handle_request t rq =
  let client = rq.Message.rq_client in
  (* Redirection-table check: unknown identifiers are dismissed before any
     signature work (§3.1). System client 0 is reserved. *)
  match Membership.lookup t.membership client with
  | None -> Util.Metrics.incr t.n_auth_fail
  | Some _ ->
    let big = Config.is_big_request t.cfg rq.rq_op in
    (* A fast-path read is never ordered, so no proposal can name its body. *)
    if big && not rq.rq_readonly then begin
      let d = Message.request_digest rq in
      Hashtbl.remove t.body_requests d;
      body_arrived t d rq
    end;
    (* Retransmission of an executed request: resend the cached reply. *)
    (match Log.cached_reply t.log client with
    | Some cr when cr.cr_id = rq.rq_id && not cr.cr_speculative ->
      send_reply t rq ~result:cr.cr_result ~tentative:cr.cr_tentative ~already_charged:false
    | Some cr when cr.cr_id >= rq.rq_id ->
      (* [cr_id = rq_id] but speculative: the execution has not committed;
         saying nothing (rather than leaking the speculative result) keeps
         the client retransmitting until the flush answers it. *)
      ()
    | Some _ | None ->
      if rq.rq_readonly then begin
        (* Read-only path: execute immediately against the current state.
           Retransmissions must not re-execute the read — for expensive
           reads that turns one slow reply into a storm of duplicate work.
           A duplicate arriving while the first copy is still queued
           behind the CPU is dropped (the pending reply will answer it);
           one arriving after completion is answered from the per-client
           read-only reply cache. *)
        match Util.Lru.find t.ro_replies client with
        | Some (id, result) when id = rq.rq_id ->
          send_reply t rq ~result ~tentative:true ~already_charged:false
        | Some _ | None ->
          if not (Hashtbl.mem t.in_flight (client, rq.rq_id)) then begin
            Hashtbl.replace t.in_flight (client, rq.rq_id) 0;
            let result, cost =
              t.service.execute ~op:rq.rq_op ~client ~timestamp:(now t) ~nondet:"" ~readonly:true
            in
            charge t cost (fun () ->
                Hashtbl.remove t.in_flight (client, rq.rq_id);
                Util.Lru.put t.ro_replies client (rq.rq_id, result);
                send_reply t rq ~result ~tentative:true ~already_charged:false)
          end
      end
      else if Hashtbl.mem t.in_flight (client, rq.rq_id) then begin
        (* Already being ordered. A retransmission means the client is not
           getting replies: re-drive the agreement by re-multicasting the
           pre-prepare (PBFT's lost-message recovery). *)
        match Hashtbl.find_opt t.in_flight (client, rq.rq_id) with
        | Some seq when seq > 0 && is_primary t -> begin
          match Log.find t.log seq with
          | Some entry when (not entry.executed) && entry.batch <> None ->
            multicast_replicas t (pre_prepare_of entry)
          | Some _ | None -> ()
        end
        | Some _ | None -> ()
      end
      else if is_primary t then enqueue t rq
      (* Backup. First copy: just remember it for the view-change
         watchdog (for big requests the client multicast included the
         primary). A second copy is a client retransmission — the client
         timed out — so relay it to the primary, which is the PBFT trigger
         for suspecting the primary. *)
      else if not (await t (client, rq.rq_id)) then
        send_to t ~dst:(primary_of_view ~n:t.cfg.n t.view) (Message.Request_msg rq))

(* Primary: queue a request for the next pre-prepare. *)
and enqueue t (rq : Message.request) =
  Hashtbl.replace t.in_flight (rq.rq_client, rq.rq_id) 0;
  Queue.push rq t.pending;
  try_emit_pre_prepare t

(* Store a big-request body; a stalled entry may have been waiting for
   exactly this one (the copies fan out to replicas at different times). *)
and body_arrived t d rq =
  store_body t d rq;
  match Log.find t.log (t.last_executed + 1) with
  | Some e when List.mem d e.missing_bodies -> try_execute t
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Agreement message handlers.                                          *)

and handle_pre_prepare t ~src (pp_view, pp_seq, pp_batch, pp_nondet) =
  let primary = primary_of_view ~n:t.cfg.n t.view in
  if
    pp_view = t.view && src = primary && (not (is_primary t)) && (not t.in_view_change)
    && pp_seq > Log.low_watermark t.log
    && pp_seq <= Log.low_watermark t.log + t.cfg.log_window
  then begin
    if not (Nondet.validate t.cfg.nondet ~now:(now t) ~recovering:t.recovering pp_nondet) then
      Util.Metrics.incr t.n_nondet_reject
    else begin
      let entry = Log.entry t.log pp_seq in
      let digest = Message.batch_digest pp_batch in
      (* A batch accepted in an older view but never prepared is
         superseded by the new view's proposal for this sequence — the
         new-view certificate proved nothing prepared here, and the stale
         votes certified the old digest. A locally *prepared* entry is
         never superseded: its certificate survives the view change
         (quorum intersection), so a conflicting re-proposal can only come
         from a Byzantine primary and must be refused. *)
      if
        entry.batch <> None && entry.pp_view < pp_view && (not entry.prepared)
        && not (String.equal entry.batch_digest digest)
      then begin
        Log.reset_votes entry;
        entry.batch <- None;
        entry.batch_digest <- ""
      end;
      let conflicting = entry.batch <> None && not (String.equal entry.batch_digest digest) in
      if not conflicting then begin
        (* In MAC mode the embedded client requests must be validated; a
           replica that lost its session keys (restart, §2.3) cannot and
           must reject the pre-prepare. *)
        let clients_ok =
          List.for_all
            (fun item ->
              let client, _ = Message.batch_item_client_id item in
              client = 0
              ||
              match Membership.lookup t.membership client with
              | None -> false
              | Some e ->
                if not t.cfg.use_macs then true
                else Hashtbl.mem t.keys_peers_chose e.me_addr)
            pp_batch
        in
        if not clients_ok then Util.Metrics.incr t.n_auth_fail
        else begin
          set_proposal entry ~view:pp_view ~batch:pp_batch ~nondet:pp_nondet ~digest;
          Log.record_prepare entry src;
          Log.record_prepare entry t.id;
          (* Track pending work for the watchdog. *)
          List.iter
            (fun item ->
              let ((client, _) as key) = Message.batch_item_client_id item in
              if client > 0 then ignore (await t key))
            pp_batch;
          arm_watchdog t;
          maybe_fill_gap t ~src ~seen_seq:pp_seq;
          let prepare = prepare_of t entry in
          Simnet.Cpu.execute_split t.cpu
            ~costs:(List.map (fun _ -> Costmodel.auth_verify t.costs t.cfg) pp_batch)
            (fun () -> multicast_replicas t prepare);
          (* If this was a retransmitted pre-prepare and we are already
             prepared, our commit may have been lost too — resend it. *)
          if entry.prepared then multicast_replicas t (commit_of t entry);
          check_prepared t entry
        end
      end
    end
  end

and check_prepared t entry =
  if (not entry.prepared) && entry.batch <> None
     && Log.prepare_count entry >= quorum_2f1 ~f:t.cfg.f
  then begin
    entry.prepared <- true;
    Log.record_commit entry t.id;
    multicast_replicas t (commit_of t entry);
    check_committed t entry;
    try_execute t
  end

and check_committed t entry =
  if (not entry.committed) && entry.prepared && Log.commit_count entry >= quorum_2f1 ~f:t.cfg.f
  then begin
    entry.committed <- true;
    advance_committed t;
    try_execute t
  end

and handle_prepare t ~src (p_view, p_seq, p_digest) =
  if p_view <= t.view && not t.in_view_change then begin
    let entry = Log.entry t.log p_seq in
    if entry.batch = None || String.equal entry.batch_digest p_digest then begin
      Log.record_prepare entry src;
      check_prepared t entry
    end
  end

and handle_commit t ~src (c_view, c_seq, c_digest) =
  if c_view <= t.view then begin
    let entry = Log.entry t.log c_seq in
    if entry.batch = None || String.equal entry.batch_digest c_digest then begin
      Log.record_commit entry src;
      (* §2.5 log replay, off by default: a quorum is committing a
         sequence we never saw the pre-prepare for; fetch it. *)
      if
        t.cfg.fetch_missing_entries && entry.batch = None
        && c_seq > Log.low_watermark t.log
        && Log.commit_count entry >= quorum_f1 ~f:t.cfg.f
        && not (Hashtbl.mem t.entry_requests c_seq)
      then begin
        Hashtbl.replace t.entry_requests c_seq ();
        send_to t ~dst:src (Message.Fetch_entry { fe_seq = c_seq; fe_replica = t.id })
      end;
      maybe_fill_gap t ~src ~seen_seq:c_seq;
      check_committed t entry
    end
  end

and maybe_fill_gap t ~src ~seen_seq =
  if t.cfg.fetch_missing_entries then begin
    let lo = Int.max (t.last_executed + 1) (Log.low_watermark t.log + 1) in
    let hi = Int.min (seen_seq - 1) (lo + 512) in
    for seq = lo to hi do
      let entry = Log.entry t.log seq in
      if entry.batch = None && not (Hashtbl.mem t.entry_requests seq) then begin
        Hashtbl.replace t.entry_requests seq ();
        send_to t ~dst:src (Message.Fetch_entry { fe_seq = seq; fe_replica = t.id })
      end
    done
  end

and handle_status t ~src (st_view, st_last_exec) =
  (* A rejoined replica stuck in an old view cannot accept the current
     view's traffic. If we are the primary that installed this view,
     replay our New_view so it can catch up (benign runs never take this
     branch: views always match). *)
  (if st_view < t.view then
     match t.last_new_view with
     | Some (Message.New_view nv as p) when nv.nv_view = t.view && is_primary t ->
       send_to t ~dst:src p
     | Some _ | None -> ());
  (* The decentralized converse: adopt the cluster's view once f+1
     distinct peers advertise an installed view above ours. The
     New_view replay above only works while the installing primary is
     alive and still holds the certificate (it is volatile state, gone
     if that primary has itself restarted since); without a fallback a
     rejoined replica climbs from its pre-crash view one watchdog
     backoff at a time, pushing View_changes at the group all the way
     up. Any f+1 set contains an honest replica, so the advertised
     view is real; jumping forward is a liveness action only. *)
  if src >= 0 && src < Array.length t.peer_views && src <> t.id then begin
    if st_view > t.peer_views.(src) then t.peer_views.(src) <- st_view;
    let supported =
      (* Largest view at least f+1 peers advertise: the (f+1)-th
         highest entry of the per-peer maxima. *)
      let vs = Array.copy t.peer_views in
      vs.(t.id) <- 0;
      Array.sort (fun a b -> Int.compare b a) vs;
      vs.(quorum_f1 ~f:t.cfg.f - 1)
    in
    if supported > t.view then begin
      install_view t supported;
      t.vc_attempts <- 0;
      cancel_watchdog t;
      arm_watchdog t
    end
  end;
  if st_last_exec < t.last_executed then begin
    if st_last_exec < t.stable_ckpt then
      (* The gap starts below our stable checkpoint: the log is gone, so
         re-vote the checkpoint to drive the peer's state transfer. *)
      (match Hashtbl.find_opt t.checkpoints t.stable_ckpt with
      | Some ck ->
        send_to t ~dst:src
          (Message.Checkpoint_msg
             { ck_seq = t.stable_ckpt; ck_digest = Statemgr.Checkpoint.root ck; ck_replica = t.id })
      | None -> ());
    let hi = Int.min t.last_executed (st_last_exec + 64) in
    for seq = st_last_exec + 1 to hi do
      Option.iter
        (fun e ->
          send_to t ~dst:src (prepare_of t e);
          send_to t ~dst:src (commit_of t e))
        (replay_entry t ~src seq)
    done
  end

(* Enter view [v]. Tentative executions from the old view may be
   re-ordered by the new primary's re-proposals (divergent commit), so
   fall back to the committed prefix first. Installing a view this
   replica does not lead also ends its primary role: the requests it
   queued but never proposed belong to the new primary, which the
   clients' retransmissions reach. Their seq-0 [in_flight] marks go with
   the queue; left behind, they would shunt every retransmission into the
   "already being ordered" branch, so the request never reaches this
   replica's waiting ledger and watchdog. *)
and install_view t v =
  if t.last_executed > t.last_committed_exec then rollback_tentative t;
  t.view <- v;
  t.in_view_change <- false;
  t.vc_target <- v;
  if not (is_primary t) then begin
    Queue.iter
      (fun (rq : Message.request) -> Hashtbl.remove t.in_flight (rq.rq_client, rq.rq_id))
      t.pending;
    Queue.clear t.pending
  end

(* Replay a log entry to [src], if we hold its batch. *)
and replay_entry t ~src seq =
  match Log.find t.log seq with
  | Some ({ batch = Some en_batch; _ } as e) ->
    send_to t ~dst:src
      (Message.Entry { en_seq = seq; en_view = e.pp_view; en_batch; en_nondet = e.nondet });
    Some e
  | Some _ | None -> None

and handle_entry t ~src:_ (en_seq, en_view, en_batch, en_nondet) =
  let entry = Log.entry t.log en_seq in
  if entry.batch = None && en_seq > Log.low_watermark t.log then begin
    (* A replayed request: the §2.5 validation trap. With plain delta
       validation the original (stale) timestamp fails and recovery is
       impeded; the skip-on-recovery policy accepts it. *)
    if not (Nondet.validate t.cfg.nondet ~now:(now t) ~recovering:true en_nondet) then
      Util.Metrics.incr t.n_nondet_reject
    else begin
      set_proposal entry ~view:en_view ~batch:en_batch ~nondet:en_nondet
        ~digest:(Message.batch_digest en_batch);
      Log.record_prepare entry t.id;
      Hashtbl.remove t.entry_requests en_seq;
      multicast_replicas t (prepare_of t entry);
      check_prepared t entry;
      check_committed t entry;
      try_execute t
    end
  end

(* ------------------------------------------------------------------ *)
(* View changes.                                                        *)

and rollback_tentative t =
  let undoing = t.last_executed > t.last_committed_exec in
  (match t.undo with
  | None -> ()
  | Some undo ->
    let dirty_pages = List.length (Statemgr.Pages.dirty t.pages) in
    Statemgr.Checkpoint.restore_undo undo t.pages t.merkle;
    load_membership_from_pages t;
    t.undo <- None;
    charge t
      (t.costs.rollback_fixed +. (t.costs.rollback_per_page *. float_of_int dirty_pages))
      ignore);
  (* Speculative executions above the committed prefix are undone: their
     flags must clear too, or a re-proposal would skip re-execution. Any
     buffered replies and speculative reply-cache entries die with them —
     the results they carry may never commit. *)
  List.iter
    (fun (e : Log.entry) ->
      e.tentatively_executed <- false;
      List.iter
        (fun ((rq : Message.request), _, _) ->
          match Log.cached_reply t.log rq.rq_client with
          | Some cr when cr.cr_id = rq.rq_id && cr.cr_speculative ->
            Log.drop_client t.log rq.rq_client
          | Some _ | None -> ())
        e.pending_replies;
      e.pending_replies <- [])
    (Log.entries_between t.log ~lo:t.last_committed_exec ~hi:(t.last_committed_exec + t.cfg.log_window));
  (* Deferred checkpoint snapshots above the committed prefix are for
     states that no longer exist. *)
  Hashtbl.reset t.pending_ckpts;
  if undoing then Util.Metrics.incr t.n_rollbacks;
  t.last_executed <- t.last_committed_exec

and start_view_change t v =
  (* §2.3: a recovering replica abstains from view changes — it counts
     against f until recovery completes. Its log died with the crash, so
     a View_change it sent now would carry an amnesiac (empty) prepared
     set; a new-view certificate built from 2f+1 votes that include it
     no longer intersects every commit quorum in an honest replica that
     prepared the batch, and a committed — client-visible — request can
     be silently re-proposed as null. The healthy 2f+1 replicas carry
     the view change alone; we adopt the outcome from the New_view
     message or from f+1 status gossip. *)
  if t.recovering then ()
  else if v > t.vc_target then begin
    t.vc_target <- v;
    t.in_view_change <- true;
    Util.Metrics.incr t.n_vc;
    t.vc_attempts <- t.vc_attempts + 1;
    rollback_tentative t;
    cancel_watchdog t;
    let stable_digest =
      match Hashtbl.find_opt t.checkpoints t.stable_ckpt with
      | Some ck -> Statemgr.Checkpoint.root ck
      | None -> ""
    in
    let prepared =
      List.map
        (fun (e : Log.entry) ->
          {
            Message.pi_view = e.pp_view;
            pi_seq = e.seq;
            pi_digest = e.batch_digest;
            pi_batch = Option.value ~default:[] e.batch;
          })
        (Log.prepared_above t.log t.stable_ckpt)
    in
    let payload =
      Message.View_change
        {
          vc_new_view = v;
          vc_stable_seq = t.stable_ckpt;
          vc_stable_digest = stable_digest;
          vc_prepared = prepared;
          vc_replica = t.id;
        }
    in
    record_view_change t ~src:t.id payload;
    multicast_replicas t payload;
    (* If the new primary is unresponsive too, move further — on the
       backed-off timer, so cascading view changes decelerate. *)
    let _ =
      Simnet.Engine.timer t.engine ~delay:(vc_timeout t *. 2.0) (fun () ->
          if t.alive && t.in_view_change && t.view < v then start_view_change t (v + 1))
    in
    check_new_view t v
  end

and record_view_change t ~src payload =
  match payload with
  | Message.View_change vc ->
    (* A replica targets one view at a time, so its newest View_change
       supersedes any vote it cast for another view. Without this,
       votes from an old incident (a rejoined replica escalating while
       it caught up, or a previous incarnation entirely) linger in
       these tables and later combine with one fresh timeout to fake an
       f+1 join quorum — the group then cascades through every view the
       stale voter ever named. *)
    List.iter
      (fun v ->
        if v <> vc.vc_new_view then
          match Hashtbl.find_opt t.vc_msgs v with
          | Some tbl -> Hashtbl.remove tbl src
          | None -> ())
      (Util.Sorted_tbl.keys t.vc_msgs);
    Hashtbl.replace (votes_for t.vc_msgs vc.vc_new_view) src payload
  | _ -> ()

(* Sanity-check a remote view-change vote before it can influence the
   new primary's re-proposal set. A Byzantine voter could otherwise claim
   a "prepared" batch whose digest does not match its contents — the new
   primary would re-propose it under [check_new_view] and correct
   replicas would install a forged digest/batch pair. Self-consistency is
   checkable without certificates: the claimed digest must be the hash of
   the carried batch, the prepared view must precede the vote's target
   view, and prepared entries must lie above the claimed checkpoint. *)
and view_change_well_formed ~new_view ~stable_seq ~stable_digest prepared =
  let digest_ok d = String.length d = 0 || String.length d = 32 in
  stable_seq >= 0
  && digest_ok stable_digest
  && List.for_all
       (fun (pi : Message.prepared_info) ->
         pi.pi_view < new_view
         && pi.pi_seq > stable_seq
         && String.equal pi.pi_digest (Message.batch_digest pi.pi_batch))
       prepared

and handle_view_change t ~src payload =
  match payload with
  | Message.View_change vc
    when vc.vc_new_view > t.view
         && not
              (view_change_well_formed ~new_view:vc.vc_new_view ~stable_seq:vc.vc_stable_seq
                 ~stable_digest:vc.vc_stable_digest vc.vc_prepared) ->
    (* Garbage vote: count it with the other authentication rejects and
       drop it before it reaches the vote table. *)
    Util.Metrics.incr t.n_auth_fail
  | Message.View_change vc when vc.vc_new_view > t.view ->
    record_view_change t ~src payload;
    let count v = match Hashtbl.find_opt t.vc_msgs v with Some tbl -> Hashtbl.length tbl | None -> 0 in
    (* Liveness: join a view change supported by f+1 others. *)
    if (not t.in_view_change) && count vc.vc_new_view >= quorum_f1 ~f:t.cfg.f then
      start_view_change t vc.vc_new_view;
    check_new_view t vc.vc_new_view
  | Message.View_change _ | _ -> ()

and check_new_view t v =
  (* Same abstention while recovering: do not step up as the new view's
     primary mid-replay — proposals would issue from a state the group
     has moved past. The healthy replicas' escalation timers carry them
     to v+1 if we stay silent. *)
  if primary_of_view ~n:t.cfg.n v = t.id && t.vc_target <= v && not t.recovering then begin
    match Hashtbl.find_opt t.vc_msgs v with
    | Some tbl when Hashtbl.length tbl >= quorum_2f1 ~f:t.cfg.f && t.view < v ->
      (* Compute the re-proposal set O from the 2f+1 view-change messages.
         Sorted traversal: msgs order reaches the New_view digest list. *)
      let msgs = Util.Sorted_tbl.bindings tbl in
      let min_s =
        List.fold_left
          (fun acc (_, p) ->
            match p with Message.View_change vc -> Int.max acc vc.vc_stable_seq | _ -> acc)
          0 msgs
      in
      let by_seq : (seqno, Message.prepared_info) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (_, p) ->
          match p with
          | Message.View_change vc ->
            List.iter
              (fun (pi : Message.prepared_info) ->
                if pi.pi_seq > min_s then begin
                  match Hashtbl.find_opt by_seq pi.pi_seq with
                  | Some existing when existing.pi_view >= pi.pi_view -> ()
                  | Some _ | None -> Hashtbl.replace by_seq pi.pi_seq pi
                end)
              vc.vc_prepared
          | _ -> ())
        msgs;
      (* Order-free: Int.max is commutative and associative. *)
      let[@detlint.allow hashtbl_order] max_s =
        Hashtbl.fold (fun s _ acc -> Int.max s acc) by_seq min_s
      in
      let reproposals =
        List.filter_map
          (fun seq ->
            if seq <= min_s then None
            else
              match Hashtbl.find_opt by_seq seq with
              | Some pi -> Some (seq, pi.pi_batch)
              | None -> Some (seq, []) (* null request fills the gap *))
          (List.init (max_s - min_s) (fun i -> min_s + 1 + i))
      in
      let vc_digests =
        List.map (fun (src, p) -> (src, Message.digest_of_payload p)) msgs
      in
      install_view t v;
      t.seq_counter <- Int.max max_s t.seq_counter;
      if t.last_executed < min_s then begin
        (* We are behind the quorum's stable checkpoint; fetch it. *)
        match
          Util.Sorted_tbl.fold (fun src p acc ->
              match p with
              | Message.View_change vc when vc.vc_stable_seq = min_s && src <> t.id ->
                Some (src, vc.vc_stable_digest)
              | _ -> acc)
            tbl None
        with
        | Some (peer, d) ->
          start_state_transfer t ~kind:Demotion ~seq:min_s ~peer
            ~digest:(if String.equal d "" then None else Some d) ()
        | None -> ()
      end;
      (* Install the re-proposed batches locally. The prepared predicate
         is per-view (§2.2): agreement re-runs in the new view, so stale
         votes — and a stale prepared/committed flag that would suppress
         the fresh commit round — are discarded first. *)
      List.iter
        (fun (seq, batch) ->
          let entry = Log.entry t.log seq in
          Log.reset_votes entry;
          set_proposal entry ~view:v ~batch ~nondet:(Nondet.produce ~now:(now t) t.rng)
            ~digest:(Message.batch_digest batch);
          Log.record_prepare entry t.id)
        reproposals;
      let nv_payload =
        Message.New_view
          { nv_view = v; nv_view_change_digests = vc_digests; nv_pre_prepares = reproposals }
      in
      t.last_new_view <- Some nv_payload;
      multicast_replicas t nv_payload;
      try_emit_pre_prepare t;
      (* PBFT restarts the view-change timer when a view is installed: the
         starved requests are already on the waiting ledger (so client
         retransmissions will not re-arm), and if this view also fails to
         commit them someone must escalate. *)
      arm_watchdog t
    | Some _ | None -> ()
  end

and handle_new_view t ~src (nv_view, nv_pre_prepares) =
  if src = primary_of_view ~n:t.cfg.n nv_view && nv_view >= t.view then begin
    (* A replica that never timed out still holds speculative executions
       from the old view: [install_view] rolls them back, so re-proposals
       re-execute against committed state. *)
    install_view t nv_view;
    List.iter
      (fun (seq, batch) ->
        (* Re-run agreement for every re-proposal above the stable
           checkpoint — including sequences this replica already executed.
           The new primary may be behind us (its checkpoint never went
           stable), and it can only commit and catch up if the replicas
           that did execute re-certify those sequences in the new view;
           [try_execute] skips re-execution of anything at or below
           [last_executed]. *)
        if seq > t.stable_ckpt then begin
          let entry = Log.entry t.log seq in
          (* Agreement is per-view: votes gathered in the old view (and a
             stale prepared flag that would suppress the commit round
             here) do not certify the re-proposal. *)
          Log.reset_votes entry;
          set_proposal entry ~view:nv_view ~batch ~nondet:entry.nondet
            ~digest:(Message.batch_digest batch);
          Log.record_prepare entry src;
          Log.record_prepare entry t.id;
          multicast_replicas t (prepare_of t entry);
          check_prepared t entry
        end)
      nv_pre_prepares;
    try_execute t;
    (* Restart the view-change timer for requests still on the waiting
       ledger — if the new view is also commit-starved, escalate. *)
    arm_watchdog t
  end

(* ------------------------------------------------------------------ *)
(* State transfer handlers.                                             *)

and handle_fetch_meta t ~src seq =
  let seq = if seq <= 0 then t.stable_ckpt else seq in
  match Hashtbl.find_opt t.checkpoints seq with
  | None -> ()
  | Some ck ->
    let tree = Statemgr.Checkpoint.merkle ck in
    let leaves = List.init (Statemgr.Merkle.num_leaves tree) (Statemgr.Merkle.leaf tree) in
    send_to t ~dst:src (Message.State_meta { sm_seq = seq; sm_replica = t.id; sm_leaves = leaves })

and handle_state_meta t ~src (seq, leaves) =
  match t.transfer with
  | Some tr when tr.tr_seq < 0 && tr.tr_peer = src && seq <= t.last_executed ->
    (* The serving peer's newest stable checkpoint is no further along
       than the state we reloaded from disk. Installing it would rewind a
       checkpoint registration onto newer state — corruption — so abandon
       this peer and rotate; if a full rotation finds nobody ahead, we
       are current and the checkpoint gossip will demote us later if that
       ever changes. *)
    t.transfer <- None;
    if tr.tr_attempt < t.cfg.n - 2 then start_rejoin_transfer t ~attempt:(tr.tr_attempt + 1)
    else begin
      note_caught_up t;
      try_execute t
    end
  | Some tr
    when tr.tr_peer = src
         && (tr.tr_seq = seq || tr.tr_seq < 0 || (Option.is_none tr.tr_digest && seq > tr.tr_seq)) ->
    (* A rejoin pins no digest, so it follows its peer to a newer
       checkpoint (dropping the pages of the collected one). A Byzantine
       peer must not be able to poison the transfer: when the target
       digest is quorum-certified, the claimed page digests must
       reproduce it. *)
    let meta_ok =
      match tr.tr_digest with
      | None -> true
      | Some d -> String.equal d (Statemgr.Merkle.root_of_leaves leaves)
    in
    if not meta_ok then Util.Metrics.incr t.n_auth_fail
    else begin
    Statemgr.Merkle.update t.merkle t.pages (Statemgr.Pages.dirty t.pages);
    let wanted = ref [] in
    List.iteri
      (fun i leaf ->
        if i < Statemgr.Merkle.num_leaves t.merkle && leaf <> Statemgr.Merkle.leaf t.merkle i then
          wanted := i :: !wanted)
      leaves;
    let tr_received = if seq = tr.tr_seq then tr.tr_received else [] in
    let tr_leaves = Array.of_list leaves and tr_wanted = List.rev !wanted in
    let tr = { tr with tr_seq = seq; tr_leaves; tr_wanted; tr_received } in
    t.transfer <- Some tr;
    if tr.tr_wanted = [] then finish_transfer t tr
    else begin
      (* Fetch in chunks of 8 pages. *)
      let rec chunks = function
        | [] -> []
        | l -> List.filteri (fun i _ -> i < 8) l :: chunks (List.filteri (fun i _ -> i >= 8) l)
      in
      List.iter
        (fun chunk ->
          send_to t ~dst:src
            (Message.Fetch_pages { fp_seq = seq; fp_pages = chunk; fp_replica = t.id }))
        (chunks tr.tr_wanted)
    end
    end
  | Some _ | None -> ()

and handle_fetch_pages t ~src (seq, wanted) =
  match Hashtbl.find_opt t.checkpoints seq with
  | None ->
    (* A checkpoint collected since the asker pinned it: announce the
       stable one, which a rejoin moves to, or it asks forever. *)
    if seq < t.stable_ckpt then handle_fetch_meta t ~src t.stable_ckpt
  | Some ck ->
    let pages = List.map (fun i -> (i, Statemgr.Checkpoint.page ck i)) wanted in
    send_to t ~dst:src (Message.State_pages { sp_seq = seq; sp_replica = t.id; sp_pages = pages })

and handle_state_pages t ~src (seq, got) =
  match t.transfer with
  | Some tr when tr.tr_seq = seq && tr.tr_peer = src ->
    (* Each page must hash to the (already root-checked) claimed leaf. *)
    let got =
      List.filter
        (fun (i, contents) ->
          i < Array.length tr.tr_leaves
          && String.equal (Statemgr.Merkle.page_digest contents) tr.tr_leaves.(i))
        got
    in
    if got = [] then Util.Metrics.incr t.n_auth_fail;
    tr.tr_received <- got @ tr.tr_received;
    if missing_pages tr = [] then finish_transfer t tr
  | Some _ | None -> ()

and finish_transfer t tr =
  List.iter (fun (i, contents) -> Statemgr.Pages.load_page t.pages i contents) tr.tr_received;
  Statemgr.Merkle.update t.merkle t.pages (List.map fst tr.tr_received);
  Statemgr.Pages.clear_dirty t.pages;
  load_membership_from_pages t;
  (* Merkle-diff accounting: what crossed the wire vs what a full (every
     leaf) transfer would have pulled. Retries can deliver duplicates, so
     count distinct pages. *)
  Util.Metrics.add t.n_pages_fetched
    (List.length (List.sort_uniq Int.compare (List.map fst tr.tr_received)));
  Util.Metrics.add t.n_pages_full (Array.length tr.tr_leaves);
  t.transfer <- None;
  t.undo <- None;
  if tr.tr_seq > t.last_executed then begin
    t.last_executed <- tr.tr_seq;
    t.last_committed_exec <- tr.tr_seq;
    t.seq_counter <- Int.max t.seq_counter tr.tr_seq
  end;
  t.stable_ckpt <- Int.max t.stable_ckpt tr.tr_seq;
  retire_through t tr.tr_seq;
  (* The transferred state already reflects every request ordered at or
     below [tr_seq], but we never walked those batches — entries on the
     waiting ledger that they satisfied would sit there forever with
     their pre-transfer timestamps and fire the view-change watchdog on
     every re-arm, even while the view is healthy. The ledger is
     starvation bookkeeping, not protocol state: drop it wholesale; any
     request that is genuinely still unserved is re-added with a fresh
     timestamp by the client's next retransmission. *)
  Hashtbl.reset t.waiting;
  (* The same holds for in_flight marks of batches proposed at or below
     [tr_seq]: this replica will never execute them, and a mark left
     behind routes the client's retransmission into the "already being
     ordered" branch for good, so a primary holding it never proposes
     the request again. *)
  Hashtbl.filter_map_inplace
    (fun _ seq -> if 0 < seq && seq <= tr.tr_seq then None else Some seq)
    t.in_flight;
  register_checkpoint t tr.tr_seq;
  (* Catching up by transfer is execution progress: reset the view-change
     backoff so the next watchdog arming starts from the base timeout —
     without this a rejoined replica inherits pre-crash-style escalation
     and times out its healthy primary. *)
  t.vc_attempts <- 0;
  note_caught_up t;
  try_execute t

(* ------------------------------------------------------------------ *)
(* Join phase 1/2 (protocol level, before ordering).                    *)

and join_challenge_value t ~addr ~pubkey ~nonce =
  Crypto.Mac.compute ~key:t.registry.reg_group_secret
    (Printf.sprintf "join|%d|%s|%s" addr pubkey nonce)

and handle_join_request t ~src:_ (j_addr, j_pubkey, j_nonce) =
  if t.cfg.dynamic_clients then begin
    let challenge = join_challenge_value t ~addr:j_addr ~pubkey:j_pubkey ~nonce:j_nonce in
    send_to t ~dst:j_addr
      (Message.Join_challenge { jc_replica = t.id; jc_addr = j_addr; jc_nonce = challenge })
  end

and handle_join_response t ~src:_ (jr_addr, jr_proof, jr_pubkey, jr_idbuf) =
  if t.cfg.dynamic_clients then begin
    (* The proof must be the challenge we (deterministically) issued; any
       replica can recompute it. The nonce is embedded in the proof check
       by construction: proof = MAC(secret, addr|pubkey|nonce). We accept
       any nonce the client chose, since the proof demonstrates it
       received the challenge at its claimed address. *)
    let valid =
      (* The client sends back (nonce, proof) packed in jr_proof. *)
      match String.index_opt jr_proof '|' with
      | None -> false
      | Some i ->
        let nonce = String.sub jr_proof 0 i in
        let proof = String.sub jr_proof (i + 1) (String.length jr_proof - i - 1) in
        String.equal proof (join_challenge_value t ~addr:jr_addr ~pubkey:jr_pubkey ~nonce)
    in
    if valid then begin
      let op =
        "\x01"
        ^ Util.Codec.encode
            (fun w () ->
              Util.Codec.W.u8 w (Char.code 'J');
              Util.Codec.W.varint w jr_addr;
              Util.Codec.W.lstring w jr_pubkey;
              Util.Codec.W.lstring w jr_idbuf)
            ()
      in
      (* Deterministic id so all replicas deduplicate identically. *)
      submit_system_op t op
        ~rq_id:
          (Char.code (Crypto.Sha256.digest op).[0]
          lor (Char.code (Crypto.Sha256.digest op).[1] lsl 8)
          lor (jr_addr lsl 16))
    end
  end

and handle_leave t ~src (lv_client : client_id) =
  match Membership.lookup t.membership lv_client with
  | Some e when e.me_addr = src && t.cfg.dynamic_clients ->
    let op =
      "\x01"
      ^ Util.Codec.encode
          (fun w () ->
            Util.Codec.W.u8 w (Char.code 'L');
            Util.Codec.W.varint w lv_client)
          ()
    in
    submit_system_op t op ~rq_id:(0x4c000000 lor lv_client)
  | Some _ | None -> ()

(* Every replica that received the system op submits it as client 0's
   request. It must be bit-identical at every replica (its digest is what
   the pre-prepare references), so its timestamp field is fixed at zero;
   ordering time comes from the agreed non-deterministic data instead.
   The primary queues it once; a backup puts it on the waiting ledger. *)
and submit_system_op t op ~rq_id =
  let rq = { Message.rq_client = 0; rq_id; rq_op = op; rq_readonly = false; rq_timestamp = 0.0 } in
  body_arrived t (Message.request_digest rq) rq;
  if not (is_primary t) then ignore (await t (0, rq_id))
  else if not (Hashtbl.mem t.in_flight (0, rq_id)) then enqueue t rq

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                            *)

and dispatch t ~src (msg : Message.t) =
  match msg.payload with
  | Message.Request_msg rq ->
    let extra = if t.cfg.dynamic_clients then t.costs.log_bookkeeping else 0.0 in
    charge t extra (fun () -> handle_request t rq)
  | Message.Body { b_request } -> handle_request t b_request
  | Message.Pre_prepare pp -> handle_pre_prepare t ~src (pp.pp_view, pp.pp_seq, pp.pp_batch, pp.pp_nondet)
  | Message.Prepare p -> handle_prepare t ~src (p.p_view, p.p_seq, p.p_digest)
  | Message.Commit c -> handle_commit t ~src (c.c_view, c.c_seq, c.c_digest)
  | Message.Checkpoint_msg c ->
    record_ckpt_vote t ~seq:c.ck_seq ~replica:c.ck_replica ~digest:c.ck_digest;
    check_ckpt_stable t c.ck_seq
  | Message.View_change _ -> handle_view_change t ~src msg.payload
  | Message.New_view nv -> handle_new_view t ~src (nv.nv_view, nv.nv_pre_prepares)
  | Message.Session_key sk ->
    if sk.sk_target = t.id then
      install_session_key t ~addr:sk.sk_sender (Crypto.Mac.key_of_bytes sk.sk_key_box)
  | Message.Key_request kq ->
    (* A restarted peer lost the key we chose for it; re-send immediately
       (the signed request was verified by check_auth). *)
    if kq.kq_replica = src && src < t.cfg.n && src <> t.id then send_session_key t src
  | Message.Join_request j -> handle_join_request t ~src (j.j_addr, j.j_pubkey, j.j_nonce)
  | Message.Join_response jr ->
    handle_join_response t ~src (jr.jr_addr, jr.jr_proof, jr.jr_pubkey, jr.jr_idbuf)
  | Message.Leave_msg l -> handle_leave t ~src l.lv_client
  | Message.Fetch_meta f -> handle_fetch_meta t ~src f.fm_seq
  | Message.State_meta s -> handle_state_meta t ~src (s.sm_seq, s.sm_leaves)
  | Message.Fetch_pages f -> handle_fetch_pages t ~src (f.fp_seq, f.fp_pages)
  | Message.State_pages s -> handle_state_pages t ~src (s.sp_seq, s.sp_pages)
  | Message.Fetch_body f -> begin
    match find_body t f.fb_digest with
    | Some rq -> send_to t ~dst:src (Message.Body { b_request = rq })
    | None -> ()
  end
  | Message.Fetch_entry f -> ignore (replay_entry t ~src f.fe_seq)
  | Message.Entry e -> handle_entry t ~src (e.en_seq, e.en_view, e.en_batch, e.en_nondet)
  | Message.Status st -> handle_status t ~src (st.st_view, st.st_last_exec)
  | Message.Reply _ | Message.Join_challenge _ | Message.Join_reply _ ->
    (* Client-bound messages; a replica ignores them. *)
    ()

and on_datagram t ~src wire =
  if t.alive then begin
    (* Read while the delivery's note is current, not later on the CPU. *)
    let received = Message.received t.net wire in
    charge t (recv_cost t (String.length wire)) (fun () ->
        match received with
        | None -> Util.Metrics.incr t.n_auth_fail
        | Some framed ->
          let cost, ok = check_auth t ~src framed in
          charge t cost (fun () ->
              if ok then dispatch t ~src framed.msg
              else Util.Metrics.incr t.n_auth_fail))
  end

(* ------------------------------------------------------------------ *)
(* Construction.                                                        *)

let create ~cfg ~costs ~engine ~net ~id ~signer ~registry ~service:service_spec ?threshold () =
  let rng = Util.Rng.split (Simnet.Engine.rng engine) in
  let num_pages = mid_partition_pages + service_spec.Service.app_pages in
  let pages =
    Statemgr.Pages.create ~page_size:service_spec.Service.page_size ~num_pages ()
  in
  let merkle = Statemgr.Merkle.build pages in
  let membership = Membership.create ~max_clients:cfg.Config.max_clients in
  if not cfg.dynamic_clients then Membership.populate_static membership registry.reg_static_clients;
  let service = service_spec.Service.make pages ~first_page:mid_partition_pages in
  let metrics = Simnet.Engine.metrics engine in
  let pbft = Util.Metrics.counter metrics ~node:id ~layer:"pbft" in
  let statemgr = Util.Metrics.counter metrics ~node:id ~layer:"statemgr" in
  let t =
    {
      cfg;
      costs;
      engine;
      net;
      cpu = Simnet.Cpu.create ~cores:cfg.Config.cores engine;
      id;
      rng;
      signer;
      registry;
      threshold;
      service_spec;
      service;
      pages;
      merkle;
      membership;
      log = Log.create ();
      keys_i_chose = Hashtbl.create 16;
      keys_peers_chose = Hashtbl.create 16;
      keys_peers_prev = Hashtbl.create 16;
      bodies = Hashtbl.create 256;
      body_arrivals = Queue.create ();
      pending = Queue.create ();
      in_flight = Hashtbl.create 64;
      ro_replies =
        (* Read-only replies displaced by the LRU bound. *)
        (let evicted = pbft "ro_cache_evictions" in
         Util.Lru.create ~capacity:(Int.max 1 cfg.max_clients)
           ~on_evict:(fun _ _ -> Util.Metrics.incr evicted)
           ());
      waiting = Hashtbl.create 64;
      body_requests = Hashtbl.create 16;
      entry_requests = Hashtbl.create 16;
      checkpoints = Hashtbl.create 8;
      pending_ckpts = Hashtbl.create 4;
      ckpt_votes = Hashtbl.create 8;
      vc_msgs = Hashtbl.create 4;
      view = 0;
      seq_counter = 0;
      last_executed = 0;
      last_committed_exec = 0;
      undo = None;
      stable_ckpt = 0;
      in_view_change = false;
      vc_target = 0;
      watchdog = None;
      rebroadcast = None;
      status_timer = None;
      refresh_timer = None;
      key_epoch = 0;
      transfer = None;
      disk = None;
      last_new_view = None;
      peer_views = Array.make cfg.Config.n 0;
      pp_scheduled = false;
      recovering = false;
      recovery_done = None;
      alive = true;
      vc_attempts = 0;
      seqs_executed = 0;
      n_exec = pbft "executed_requests";
      n_vc = pbft "view_changes";
      n_auth_fail = pbft "auth_failures";
      n_nondet_reject = pbft "nondet_rejects";
      n_ckpt = statemgr "checkpoint_count";
      n_undo = statemgr "undo_snapshots";
      n_demotions = pbft "demotions";
      n_demotion_transfers = pbft "demotion_transfers";
      n_rejoin_transfers = pbft "rejoin_transfers";
      n_pages_fetched = statemgr "transfer_pages_fetched";
      n_pages_full = statemgr "transfer_pages_full";
      n_spec_exec = pbft "speculative_executions";
      n_rollbacks = pbft "rollbacks";
      n_aged_out = pbft "bodies_aged_out";
      n_aged_unanswered = pbft "aged_out_unanswered";
      record_journal = false;
      exec_journal = [];
    }
  in
  sync_membership_to_pages t;
  (* Sequence 0 is the genesis checkpoint. *)
  register_checkpoint t 0;
  Simnet.Net.register net id (fun ~src wire -> on_datagram t ~src wire);
  Simnet.Net.set_backlog_probe net id (fun () -> Simnet.Cpu.queue_length t.cpu);
  if cfg.status_period > 0.0 then
    t.status_timer <-
      Some
        (Simnet.Engine.periodic engine ~interval:cfg.status_period (fun () ->
             if t.alive then
               multicast_replicas t
                 (Message.Status
                    { st_replica = t.id; st_view = t.view; st_last_exec = t.last_executed })));
  if cfg.use_macs then begin
    Simnet.Engine.schedule engine ~delay:0.0 (fun () -> broadcast_session_keys t);
    t.rebroadcast <-
      Some
        (Simnet.Engine.periodic engine ~interval:cfg.authenticator_rebroadcast (fun () ->
             if t.alive then broadcast_session_keys t))
  end;
  if cfg.use_macs && cfg.key_refresh_period > 0.0 then
    t.refresh_timer <-
      Some
        (Simnet.Engine.periodic engine ~interval:cfg.key_refresh_period (fun () ->
             if t.alive then refresh_session_keys t));
  t

let shutdown t =
  t.alive <- false;
  Simnet.Net.unregister t.net t.id;
  (* The fields keep their timers: work still queued on a dead replica's
     CPU must not arm fresh ones. *)
  List.iter (Option.iter Simnet.Engine.cancel)
    [ t.watchdog; t.rebroadcast; t.status_timer; t.refresh_timer ]

(* Crash: kill the process, keeping only what survives on disk — the
   newest checkpoint at or below the stable point. Everything else (log,
   votes, session keys, caches, tallies, speculative state) is volatile
   and dies here. *)
let crash t =
  (* Ascending order: the newest qualifying checkpoint is written last. *)
  List.iter
    (fun s -> if s > 0 && s <= t.stable_ckpt then t.disk <- Hashtbl.find_opt t.checkpoints s)
    (Util.Sorted_tbl.keys t.checkpoints);
  if t.alive then shutdown t

let restart t =
  crash t;
  let fresh =
    create ~cfg:t.cfg ~costs:t.costs ~engine:t.engine ~net:t.net ~id:t.id ~signer:t.signer
      ~registry:t.registry ~service:t.service_spec ?threshold:t.threshold ()
  in
  fresh.recovering <- true;
  fresh.disk <- t.disk;
  (match t.disk with
  | Some ck when Statemgr.Checkpoint.seqno ck > 0 ->
    (* Reload the persisted checkpoint in place: only pages that differ
       from the genesis image are restored, the Merkle tree follows, and
       the rejoin transfer below then diffs against *this* state —
       fetching only pages that diverged after the crash. *)
    let seq = Statemgr.Checkpoint.seqno ck in
    Statemgr.Merkle.update fresh.merkle fresh.pages (Statemgr.Pages.dirty fresh.pages);
    Statemgr.Checkpoint.restore ck fresh.pages fresh.merkle;
    load_membership_from_pages fresh;
    fresh.last_executed <- seq;
    fresh.last_committed_exec <- seq;
    fresh.seq_counter <- seq;
    fresh.stable_ckpt <- seq;
    retire_through fresh seq;
    register_checkpoint fresh seq
  | Some _ | None -> ());
  (* §2.3: without the gated remedy, recovery stalls until the peers'
     periodic key rebroadcast; with it, a signed Key_request makes them
     re-send their session keys immediately. *)
  if t.cfg.use_macs && t.cfg.rejoin_key_refresh then
    Simnet.Engine.schedule t.engine ~delay:0.0 (fun () ->
        if fresh.alive then request_session_keys fresh);
  (* Catch up from peers in ring order (Merkle-diff against the reloaded
     disk state). *)
  Simnet.Engine.schedule t.engine ~delay:0.001 (fun () ->
      if fresh.alive && fresh.transfer = None then start_rejoin_transfer fresh ~attempt:0);
  fresh
