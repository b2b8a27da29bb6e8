let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let b = Bytes.make block_size '\000' in
  Bytes.blit_string key 0 b 0 (String.length key);
  Bytes.to_string b

let xor_with s c = String.map (fun x -> Char.chr (Char.code x lxor c)) s

(* HMAC's first compression block on each side depends only on the key.
   Session keys are long-lived (they authenticate every message of a
   connection), so cache the two midstates per key and start each
   message from them — no pad allocation, no key xor, no message
   concatenation per call. *)
type midstate = { inner : Sha256.ctx; outer : Sha256.ctx }

let midstates : (string, midstate) Hashtbl.t = Hashtbl.create 64

let midstate_for key =
  match Hashtbl.find_opt midstates key with
  | Some m -> m
  | None ->
    if Hashtbl.length midstates > 4096 then Hashtbl.reset midstates;
    let nk = normalize_key key in
    let inner = Sha256.init () in
    Sha256.feed inner (xor_with nk 0x36);
    let outer = Sha256.init () in
    Sha256.feed outer (xor_with nk 0x5c);
    let m = { inner; outer } in
    Hashtbl.add midstates key m;
    m

(* Each tag is computed start to finish in one call, so one working
   context serves them all: the cached midstate is copied into it rather
   than into a fresh context per side. Single-domain only, like
   [Sha256]'s own scratch context. *)
let work = Sha256.init ()

let mac ~key msg =
  let m = midstate_for key in
  Sha256.copy_into m.inner ~dst:work;
  Sha256.feed work msg;
  let inner = Sha256.finalize work in
  Sha256.copy_into m.outer ~dst:work;
  Sha256.feed work inner;
  Sha256.finalize work

let verify ~key msg ~tag =
  let expected = mac ~key msg in
  (* Fold over all bytes rather than early-exit, mirroring constant-time
     comparison discipline. *)
  String.length expected = String.length tag
  &&
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i])) expected;
  !diff = 0
