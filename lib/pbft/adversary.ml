open Types

type behavior =
  | Equivocate
  | Mute
  | Selective_mute of replica_id list
  | Corrupt_macs
  | Garbage_view_change
  | Mutate_nondet

let behavior_name = function
  | Equivocate -> "equivocate"
  | Mute -> "mute"
  | Selective_mute _ -> "selective-mute"
  | Corrupt_macs -> "corrupt-macs"
  | Garbage_view_change -> "garbage-view-change"
  | Mutate_nondet -> "mutate-nondet"

type t = {
  behavior : behavior;
  replica : Replica.t;
  net : Simnet.Net.t;
  cfg : Config.t;
  mutable injector : Simnet.Engine.timer option;
  mutable n_mutations : int;
}

let replica_id t = Replica.id t.replica
let mutations t = t.n_mutations

(* Decode a wire, rewrite its payload through [f], re-encode with fresh
   (valid) authentication for the concrete destination. [f] returning
   None leaves the datagram untouched. The adversary is a real group
   member, so it holds a legitimate signing key and (in MAC mode) the
   per-peer session keys it chose — its lies verify. *)
let rewrite t ~dst wire f =
  match Message.decode wire with
  | None -> wire
  | Some msg -> begin
    match f msg.Message.payload with
    | None -> wire
    | Some payload' ->
      t.n_mutations <- t.n_mutations + 1;
      let pb = Message.payload_bytes payload' in
      Message.encode_wire ~payload_bytes:pb (fst (Replica.authenticate_to t.replica ~dst pb))
  end

(* Equivocation payload: swap the first two batch items. Item order is
   part of the batch digest — what prepares and commits certify — so the
   two cohorts hold conflicting certificates for the same sequence
   number, yet every request body stays resolvable whichever order
   eventually commits. Single-item batches offer nothing to reorder and
   pass through untouched. *)
let swap_first_two = function
  | a :: b :: rest -> Some (b :: a :: rest)
  | _ -> None

(* A syntactically valid 16-byte non-determinism blob whose timestamp is
   absurdly far in the future — §2.5: without validation backups would
   execute with the primary's lie; with delta validation they reject the
   pre-prepare and the primary gets demoted by view change. *)
let poisoned_nondet () =
  Util.Codec.encode
    (fun w () ->
      Util.Codec.W.f64 w 1.0e9;
      Util.Codec.W.u64 w 0L)
    ()

let corrupt_tail wire =
  let n = String.length wire in
  if n = 0 then wire
  else begin
    let b = Bytes.of_string wire in
    Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0x55));
    Bytes.to_string b
  end

let replica_addrs t = List.init t.cfg.n (fun i -> i)

(* Forge a view-change vote for the next view carrying a fabricated
   prepared entry: the claimed digest matches no batch and the claimed
   view is ahead of the vote's own target. If the receiver trusted it,
   the forged digest could poison the new primary's re-proposal set. *)
let inject_garbage_view_change t =
  t.n_mutations <- t.n_mutations + 1;
  let id = replica_id t in
  let garbage = String.make 32 'z' in
  let payload =
    Message.View_change
      {
        vc_new_view = Replica.view t.replica + 1;
        vc_stable_seq = 0;
        vc_stable_digest = garbage;
        vc_prepared =
          [
            {
              Message.pi_view = Replica.view t.replica + 8;
              pi_seq = 1;
              pi_digest = garbage;
              pi_batch = [];
            };
          ];
        vc_replica = id;
      }
  in
  let pb = Message.payload_bytes payload in
  let label = Message.label payload in
  List.iter
    (fun peer ->
      if peer <> id then begin
        let wire =
          Message.encode_wire ~payload_bytes:pb
            (fst (Replica.authenticate_to t.replica ~dst:peer pb))
        in
        Simnet.Net.send t.net ~label ~src:id ~dst:peer wire
      end)
    (replica_addrs t)

let install ~net ~cfg replica behavior =
  let t = { behavior; replica; net; cfg; injector = None; n_mutations = 0 } in
  let src = Replica.id replica in
  (match behavior with
  | Mute ->
    (* Drop everything the replica sends — to peers and clients alike. *)
    Simnet.Net.set_link_drop net ~src ~dst:Simnet.Net.any_addr (fun ~label:_ ->
        t.n_mutations <- t.n_mutations + 1;
        true)
  | Selective_mute peers ->
    (* Withhold only the primary's leadership traffic from the listed
       peers. Prepares, commits and checkpoint votes still flow, so the
       starved backup watches a stable checkpoint form past it and takes
       the §2.4 demotion path (full mute would also starve it of the
       2f+1 checkpoint votes that trigger the demotion). *)
    List.iter
      (fun peer ->
        Simnet.Net.set_link_drop net ~src ~dst:peer (fun ~label ->
            let muted = String.equal label "pre-prepare" || String.equal label "new-view" in
            if muted then t.n_mutations <- t.n_mutations + 1;
            muted))
      peers
  | Corrupt_macs ->
    (* Flip a payload byte while keeping the stale authenticator: every
       MAC in the vector (and any signature) covers the payload bytes, so
       no receiver can validate anything this replica sends — the §2.3
       pathology, by malice rather than lost session keys. (Corrupting
       the trailer instead would only break the last peer's MAC entry.) *)
    Simnet.Net.set_link_corrupt net ~src ~dst:Simnet.Net.any_addr (fun ~dst:_ ~label:_ wire ->
        match Message.decode wire with
        | None -> wire
        | Some msg ->
          t.n_mutations <- t.n_mutations + 1;
          let pb = Message.payload_bytes msg.Message.payload in
          Message.encode_wire ~payload_bytes:(corrupt_tail pb) msg.Message.auth)
  | Equivocate ->
    (* Odd-numbered peers get a conflicting pre-prepare; even peers the
       original. Neither cohort alone can assemble a 2f+1 certificate. *)
    Simnet.Net.set_link_corrupt net ~src ~dst:Simnet.Net.any_addr (fun ~dst ~label wire ->
        if dst < cfg.n && dst mod 2 = 1 && String.equal label "pre-prepare" then
          rewrite t ~dst wire (function
            | Message.Pre_prepare pp ->
              Option.map
                (fun batch -> Message.Pre_prepare { pp with pp_batch = batch })
                (swap_first_two pp.pp_batch)
            | _ -> None)
        else wire)
  | Mutate_nondet ->
    Simnet.Net.set_link_corrupt net ~src ~dst:Simnet.Net.any_addr (fun ~dst ~label wire ->
        if dst < cfg.n && String.equal label "pre-prepare" then
          rewrite t ~dst wire (function
            | Message.Pre_prepare pp ->
              Some (Message.Pre_prepare { pp with pp_nondet = poisoned_nondet () })
            | _ -> None)
        else wire)
  | Garbage_view_change ->
    t.injector <-
      Some
        (Simnet.Engine.periodic (Simnet.Net.engine net) ~interval:0.25 (fun () ->
             inject_garbage_view_change t)));
  t

let uninstall t =
  (match t.injector with
  | Some timer ->
    Simnet.Engine.cancel timer;
    t.injector <- None
  | None -> ());
  let src = replica_id t in
  Simnet.Net.clear_link t.net ~src ~dst:Simnet.Net.any_addr;
  List.iter (fun peer -> Simnet.Net.clear_link t.net ~src ~dst:peer) (replica_addrs t)
