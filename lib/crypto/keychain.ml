type mode =
  | Real of int
  | Simulated

(* Simulated signatures are HMAC tags under a key derived from the node id
   and a per-run secret, padded to the nominal signature size so the
   network byte accounting matches the Real mode. *)
let simulated_signature_size = 68 (* ≈ 512-bit Rabin root + counter byte overhead *)

(* A simulated signer and its verifier share one HMAC key value, so the
   key's midstates are prepared once, by whichever of them MACs first. A
   real signer carries its signature size, worked out once: a counter
   varint and the length-prefixed root, as long as the modulus. *)
type signer =
  | Real_signer of int * Rabin.keypair * int
  | Sim_signer of int * Hmac.key

type verifier =
  | Real_verifier of int * Rabin.public_key
  | Sim_verifier of int * Hmac.key

let derive_sim_key rng id =
  let seed = Bytes.to_string (Util.Rng.bytes rng 16) in
  Hmac.key (Sha256.digest (Printf.sprintf "simkey|%d|%s" id seed))

let make mode rng ~id =
  match mode with
  | Real bits ->
    let kp = Rabin.generate rng ~bits in
    Real_signer (id, kp, 1 + String.length (Rabin.public_to_string (Rabin.public kp)))
  | Simulated -> Sim_signer (id, derive_sim_key rng id)

let verifier_of = function
  | Real_signer (id, kp, _) -> Real_verifier (id, Rabin.public kp)
  | Sim_signer (id, key) -> Sim_verifier (id, key)

let pad_to size s = if String.length s >= size then s else s ^ String.make (size - String.length s) '\000'

(* Rabin formats the message into what it hashes: it gets a copy of a slice. *)
let sign signer ?(pos = 0) ?len msg =
  let len = Option.value len ~default:(String.length msg - pos) in
  match signer with
  | Real_signer (_, kp, _) -> Rabin.signature_to_string (Rabin.sign kp (String.sub msg pos len))
  | Sim_signer (_, key) -> pad_to simulated_signature_size (Hmac.mac ~key ~pos ~len msg)

let signature_size = function Real_signer (_, _, n) -> n | Sim_signer _ -> simulated_signature_size

let verify verifier ?(pos = 0) ?len msg ~signature =
  let len = Option.value len ~default:(String.length msg - pos) in
  match verifier with
  | Real_verifier (_, pk) -> begin
    match Rabin.signature_of_string signature with
    | None -> false
    | Some s -> Rabin.verify pk (String.sub msg pos len) s
  end
  | Sim_verifier (_, key) ->
    String.length signature = simulated_signature_size
    && String.equal (String.sub signature 0 32) (Hmac.mac ~key ~pos ~len msg)

let verifier_to_string v =
  let tag, id, body =
    match v with
    | Real_verifier (id, pk) -> (0, id, Rabin.public_to_string pk)
    | Sim_verifier (id, key) -> (1, id, Hmac.key_bytes key)
  in
  Util.Codec.encode
    (fun w () ->
      Util.Codec.W.u8 w tag;
      Util.Codec.W.varint w id;
      Util.Codec.W.lstring w body)
    ()

let verifier_of_string s =
  match
    Util.Codec.decode
      (fun r ->
        let tag = Util.Codec.R.u8 r in
        let id = Util.Codec.R.varint r in
        let body = Util.Codec.R.lstring r in
        (tag, id, body))
      s
  with
  | exception Util.Codec.R.Truncated -> None
  | 0, id, body -> Option.map (fun pk -> Real_verifier (id, pk)) (Rabin.public_of_string body)
  | 1, id, body -> Some (Sim_verifier (id, Hmac.key body))
  | _ -> None

(* Proactive session-key refresh (epoch rollover) must not disturb the
   deterministic RNG stream that every replica shares with the rest of
   the simulation, so epoch keys are *derived*, not drawn: a keyed hash
   of the signer's own deterministic signature over the (peer, epoch)
   label. Same signer + peer + epoch → same key, and nobody without the
   signing secret can predict it. *)
let derive_session_key signer ~peer ~epoch =
  let tag = sign signer (Printf.sprintf "session-key|%d|%d" peer epoch) in
  Mac.key_of_bytes (String.sub (Sha256.digest ("sk|" ^ tag)) 0 16)

let verifier_id = function Real_verifier (id, _) | Sim_verifier (id, _) -> id
