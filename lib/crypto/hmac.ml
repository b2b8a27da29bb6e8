let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let b = Bytes.make block_size '\000' in
  Bytes.blit_string key 0 b 0 (String.length key);
  Bytes.to_string b

let xor_with s c = String.map (fun x -> Char.chr (Char.code x lxor c)) s

(* HMAC's first compression block on each side depends only on the key.
   A key is long-lived (a session key authenticates every message of a
   connection), so it carries the two midstates, hashed the first time
   it MACs, and each message starts from them — no pad allocation, no
   key xor, no message concatenation per call. Preparation is lazy: most
   keys a cluster creates never MAC anything. *)
type midstate = { inner : Sha256.ctx; outer : Sha256.ctx }
type key = { raw : string; mid : midstate Lazy.t }

let prepare raw =
  let nk = normalize_key raw in
  let inner = Sha256.init () in
  Sha256.feed inner (xor_with nk 0x36);
  let outer = Sha256.init () in
  Sha256.feed outer (xor_with nk 0x5c);
  { inner; outer }

let key raw = { raw; mid = lazy (prepare raw) }
let key_bytes k = k.raw

(* Each tag is computed start to finish in one call, so one working
   context serves them all: the key's midstate is copied into it rather
   than into a fresh context per side. Single-domain only, like
   [Sha256]'s own scratch context. *)
let work = Sha256.init ()

let mac ~key ?(pos = 0) ?len msg =
  let len = match len with Some n -> n | None -> String.length msg - pos in
  let m = Lazy.force key.mid in
  Sha256.copy_into m.inner ~dst:work;
  Sha256.feed_bytes work (Bytes.unsafe_of_string msg) ~pos ~len;
  let inner = Sha256.finalize work in
  Sha256.copy_into m.outer ~dst:work;
  Sha256.feed work inner;
  Sha256.finalize work
