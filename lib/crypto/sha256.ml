(* FIPS 180-4 SHA-256.

   The compression function runs on untagged native [int]s holding 32-bit
   words (OCaml ints are 63-bit, so every intermediate fits), masking back
   to 32 bits where overflow matters. This avoids the per-operation boxing
   of an [Int32] implementation — the digest path under MAC authenticators
   is the hottest host-side loop in the simulator. *)

let digest_size = 32

(* Host-side instrumentation: total message bytes fed through the
   compression function, across all contexts. Single-domain only. *)
let hashed = ref 0

let bytes_hashed () = !hashed

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
     0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
     0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
     0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
     0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
     0xc67178f2 |]

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable h5 : int;
  mutable h6 : int;
  mutable h7 : int;
  block : bytes; (* 64-byte working block *)
  mutable fill : int; (* bytes currently buffered in [block] *)
  mutable total : int; (* total message bytes fed *)
  w : int array; (* 64-entry message schedule, reused across blocks *)
}

let init () =
  {
    h0 = 0x6a09e667;
    h1 = 0xbb67ae85;
    h2 = 0x3c6ef372;
    h3 = 0xa54ff53a;
    h4 = 0x510e527f;
    h5 = 0x9b05688c;
    h6 = 0x1f83d9ab;
    h7 = 0x5be0cd19;
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0;
  }

(* The message schedule [w] is scratch within one [compress] call (fully
   written before it is read), so copies may share it — single-domain. *)
let copy ctx =
  {
    ctx with
    block = Bytes.copy ctx.block;
  }

let reset ctx =
  ctx.h0 <- 0x6a09e667;
  ctx.h1 <- 0xbb67ae85;
  ctx.h2 <- 0x3c6ef372;
  ctx.h3 <- 0xa54ff53a;
  ctx.h4 <- 0x510e527f;
  ctx.h5 <- 0x9b05688c;
  ctx.h6 <- 0x1f83d9ab;
  ctx.h7 <- 0x5be0cd19;
  ctx.fill <- 0;
  ctx.total <- 0

let mask = 0xffffffff
let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let compress ctx buf off =
  let w = ctx.w in
  for i = 0 to 15 do
    let j = off + (i * 4) in
    w.(i) <-
      (Char.code (Bytes.unsafe_get buf j) lsl 24)
      lor (Char.code (Bytes.unsafe_get buf (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get buf (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get buf (j + 3))
  done;
  for i = 16 to 63 do
    let x15 = Array.unsafe_get w (i - 15) and x2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr x15 7 lxor rotr x15 18 lxor (x15 lsr 3) in
    let s1 = rotr x2 17 lxor rotr x2 19 lxor (x2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref ctx.h0
  and b = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4
  and f = ref ctx.h5
  and g = ref ctx.h6
  and h = ref ctx.h7 in
  for i = 0 to 63 do
    let e' = !e in
    let s1 = rotr e' 6 lxor rotr e' 11 lxor rotr e' 25 in
    let ch = (e' land !f) lxor (lnot e' land mask land !g) in
    let temp1 = (!h + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask in
    let a' = !a in
    let s0 = rotr a' 2 lxor rotr a' 13 lxor rotr a' 22 in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    let temp2 = s0 + maj in
    h := !g;
    g := !f;
    f := e';
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (temp1 + temp2) land mask
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask;
  ctx.h1 <- (ctx.h1 + !b) land mask;
  ctx.h2 <- (ctx.h2 + !c) land mask;
  ctx.h3 <- (ctx.h3 + !d) land mask;
  ctx.h4 <- (ctx.h4 + !e) land mask;
  ctx.h5 <- (ctx.h5 + !f) land mask;
  ctx.h6 <- (ctx.h6 + !g) land mask;
  ctx.h7 <- (ctx.h7 + !h) land mask

let feed_bytes ctx b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  hashed := !hashed + len;
  let remaining = ref len and src = ref pos in
  (* Fast path: if the block buffer is empty, compress 64-byte chunks
     straight out of the caller's buffer without the intermediate blit. *)
  if ctx.fill > 0 then begin
    let space = 64 - ctx.fill in
    let n = Int.min space !remaining in
    Bytes.blit b !src ctx.block ctx.fill n;
    ctx.fill <- ctx.fill + n;
    src := !src + n;
    remaining := !remaining - n;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  if ctx.fill = 0 then begin
    while !remaining >= 64 do
      compress ctx b !src;
      src := !src + 64;
      remaining := !remaining - 64
    done;
    if !remaining > 0 then begin
      Bytes.blit b !src ctx.block 0 !remaining;
      ctx.fill <- !remaining
    end
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finalize ctx =
  let bitlen = Int64.of_int (ctx.total * 8) in
  (* Padding: 0x80, zeros, 8-byte big-endian bit length. *)
  let pad_block () =
    while ctx.fill < 64 do
      Bytes.set ctx.block ctx.fill '\000';
      ctx.fill <- ctx.fill + 1
    done;
    compress ctx ctx.block 0;
    ctx.fill <- 0
  in
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then pad_block ();
  while ctx.fill < 56 do
    Bytes.set ctx.block ctx.fill '\000';
    ctx.fill <- ctx.fill + 1
  done;
  Bytes.set_int64_be ctx.block 56 bitlen;
  ctx.fill <- 64;
  compress ctx ctx.block 0;
  ctx.fill <- 0;
  let out = Bytes.create 32 in
  Bytes.set_int32_be out 0 (Int32.of_int ctx.h0);
  Bytes.set_int32_be out 4 (Int32.of_int ctx.h1);
  Bytes.set_int32_be out 8 (Int32.of_int ctx.h2);
  Bytes.set_int32_be out 12 (Int32.of_int ctx.h3);
  Bytes.set_int32_be out 16 (Int32.of_int ctx.h4);
  Bytes.set_int32_be out 20 (Int32.of_int ctx.h5);
  Bytes.set_int32_be out 24 (Int32.of_int ctx.h6);
  Bytes.set_int32_be out 28 (Int32.of_int ctx.h7);
  (* [out] is fresh and never escapes as bytes. *)
  Bytes.unsafe_to_string out

(* One-shot digests reuse a scratch context instead of allocating a fresh
   block + schedule per call. Single-domain only, like [hashed]. *)
let scratch = init ()

let digest msg =
  reset scratch;
  feed scratch msg;
  finalize scratch

let hex msg = Util.Hexdump.of_string (digest msg)
