type key = Hmac.key

let tag_size = 8
let key_of_bytes = Hmac.key
let key_bytes = Hmac.key_bytes
let equal_key a b = String.equal (Hmac.key_bytes a) (Hmac.key_bytes b)
let compute ~key msg = String.sub (Hmac.mac ~key msg) 0 tag_size

let verify ~key msg ~tag =
  String.length tag = tag_size
  &&
  let expected = compute ~key msg in
  (* Fold over all bytes rather than early-exit, mirroring constant-time
     comparison discipline. *)
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i])) expected;
  !diff = 0

let fresh_key rng = key_of_bytes (Bytes.to_string (Util.Rng.bytes rng 16))
