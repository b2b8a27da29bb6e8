(* FIPS 180-4 SHA-256.

   Two kernels compress 64-byte blocks into the running state. Where the
   CPU has the x86-64 SHA extensions, [sha256_stubs.c] compresses each
   run of whole blocks on them in one call; everywhere else the OCaml
   rounds below do. A CPUID probe picks one when this module initialises, and every
   context from [init] uses it. The two write the same state, so a
   digest does not depend on which ran. The running state is one 32-byte
   buffer of native-endian words h0..h7, which both kernels update in
   place.

   The OCaml compression function runs on untagged native [int]s holding
   32-bit words (OCaml ints are 63-bit, so every intermediate fits),
   masking back to 32 bits where overflow matters. This avoids the
   per-operation boxing of an [Int32] implementation.

   Round structure. A textbook round computes T1 and T2, then shifts all
   eight working variables down one place (h <- g, ..., b <- a) with
   e <- d + T1 and a <- T1 + T2. [compress] runs eight rounds per loop
   iteration and renames the roles instead of moving values: round j of
   an iteration reads the variables (a, b, ..., h) rotated right j
   places, and writes only its new e (into the variable that held d) and
   its new a (into the variable that held h). After eight rounds every
   role is back in its own variable. Each word of the block is loaded
   with one [Bytes.get_int32_be], at any offset. *)

(* [hardware_blocks state buf off n] compresses the [n] blocks of [buf]
   from [off] into [state]; the caller checks the range. *)
external hardware_available : unit -> bool = "pbft_sha256_hw_available" [@@noalloc]
external hardware_blocks : bytes -> bytes -> int -> int -> unit = "pbft_sha256_hw_blocks"
[@@noalloc]

let hardware = hardware_available ()
let kernel = if hardware then "sha-ni" else "ocaml"

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
  h : bytes; (* running state: h0..h7, 32-bit native-endian words *)
  block : bytes; (* 64-byte working block *)
  mutable fill : int; (* bytes currently buffered in [block] *)
  mutable total : int; (* total message bytes fed *)
  hw : bool; (* runs the hardware kernel *)
}

let mask = 0xffffffff
let[@inline] get h i = Int32.to_int (Bytes.get_int32_ne h (i * 4)) land mask
let[@inline] set h i v = Bytes.set_int32_ne h (i * 4) (Int32.of_int v)

let iv =
  let h = Bytes.create 32 in
  List.iteri (set h)
    [ 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 ];
  h

let make ~hw = { h = Bytes.copy iv; block = Bytes.create 64; fill = 0; total = 0; hw }
let init () = make ~hw:hardware
let portable () = make ~hw:false

let copy_into src ~dst =
  Bytes.blit src.h 0 dst.h 0 32;
  Bytes.blit src.block 0 dst.block 0 src.fill;
  dst.fill <- src.fill;
  dst.total <- src.total

let copy ctx =
  let c = make ~hw:ctx.hw in
  copy_into ctx ~dst:c;
  c

let reset ctx =
  Bytes.blit iv 0 ctx.h 0 32;
  ctx.fill <- 0;
  ctx.total <- 0

(* A 32-bit word duplicated as [x lor (x lsl 32)] holds every rotation
   of [x] in a 32-bit window: [rotr x n] is bits [n .. n + 31] of the
   duplicate. Bit 31 of the upper copy falls off the 63-bit int, but no
   window with 1 <= n <= 31 reaches it. These return the Σ/σ functions
   with garbage above bit 31; every caller adds them into a sum that is
   masked before it is rotated or stored. *)
let[@inline] big_sigma0 x =
  let d = x lor (x lsl 32) in
  (d lsr 2) lxor (d lsr 13) lxor (d lsr 22)

let[@inline] big_sigma1 x =
  let d = x lor (x lsl 32) in
  (d lsr 6) lxor (d lsr 11) lxor (d lsr 25)

let[@inline] small_sigma0 x =
  let d = x lor (x lsl 32) in
  (d lsr 7) lxor (d lsr 18) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let d = x lor (x lsl 32) in
  (d lsr 17) lxor (d lsr 19) lxor (x lsr 10)

(* Unchecked indexing for the round loop; every index is below 64. *)
let[@inline] ( .%() ) a i = Array.unsafe_get a i

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land b) lor (c land (a lor b))

(* The message schedule of the OCaml kernel, shared by every context.
   Single-domain only, like [hashed]. *)
let w = Array.make 64 0

let compress st buf off =
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be buf (off + (i * 4))) land mask)
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((w.%(i - 16) + small_sigma0 w.%(i - 15) + w.%(i - 7) + small_sigma1 w.%(i - 2)) land mask)
  done;
  let a = ref (get st 0)
  and b = ref (get st 1)
  and c = ref (get st 2)
  and d = ref (get st 3)
  and e = ref (get st 4)
  and f = ref (get st 5)
  and g = ref (get st 6)
  and h = ref (get st 7) in
  for r = 0 to 7 do
    let i = r * 8 in
    (* Rounds i .. i + 7; see the header for the role renaming. *)
    let t1 = !h + big_sigma1 !e + ch !e !f !g + k.%(i) + w.%(i) in
    d := (!d + t1) land mask;
    h := (t1 + big_sigma0 !a + maj !a !b !c) land mask;
    let t1 = !g + big_sigma1 !d + ch !d !e !f + k.%(i + 1) + w.%(i + 1) in
    c := (!c + t1) land mask;
    g := (t1 + big_sigma0 !h + maj !h !a !b) land mask;
    let t1 = !f + big_sigma1 !c + ch !c !d !e + k.%(i + 2) + w.%(i + 2) in
    b := (!b + t1) land mask;
    f := (t1 + big_sigma0 !g + maj !g !h !a) land mask;
    let t1 = !e + big_sigma1 !b + ch !b !c !d + k.%(i + 3) + w.%(i + 3) in
    a := (!a + t1) land mask;
    e := (t1 + big_sigma0 !f + maj !f !g !h) land mask;
    let t1 = !d + big_sigma1 !a + ch !a !b !c + k.%(i + 4) + w.%(i + 4) in
    h := (!h + t1) land mask;
    d := (t1 + big_sigma0 !e + maj !e !f !g) land mask;
    let t1 = !c + big_sigma1 !h + ch !h !a !b + k.%(i + 5) + w.%(i + 5) in
    g := (!g + t1) land mask;
    c := (t1 + big_sigma0 !d + maj !d !e !f) land mask;
    let t1 = !b + big_sigma1 !g + ch !g !h !a + k.%(i + 6) + w.%(i + 6) in
    f := (!f + t1) land mask;
    b := (t1 + big_sigma0 !c + maj !c !d !e) land mask;
    let t1 = !a + big_sigma1 !f + ch !f !g !h + k.%(i + 7) + w.%(i + 7) in
    e := (!e + t1) land mask;
    a := (t1 + big_sigma0 !b + maj !b !c !d) land mask
  done;
  set st 0 (get st 0 + !a);
  set st 1 (get st 1 + !b);
  set st 2 (get st 2 + !c);
  set st 3 (get st 3 + !d);
  set st 4 (get st 4 + !e);
  set st 5 (get st 5 + !f);
  set st 6 (get st 6 + !g);
  set st 7 (get st 7 + !h)

(* Compress the [n] blocks of [buf] from [off] with [ctx]'s kernel. *)
let compress_blocks ctx buf off n =
  if ctx.hw then hardware_blocks ctx.h buf off n
  else
    for i = 0 to n - 1 do
      compress ctx.h buf (off + (i * 64))
    done

let feed_bytes ctx b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  hashed := !hashed + len;
  (* Top up a partly filled block first. *)
  let taken =
    if ctx.fill = 0 then 0
    else begin
      let n = Int.min (64 - ctx.fill) len in
      Bytes.blit b pos ctx.block ctx.fill n;
      ctx.fill <- ctx.fill + n;
      if ctx.fill = 64 then begin
        compress_blocks ctx ctx.block 0 1;
        ctx.fill <- 0
      end;
      n
    end
  in
  (* Then every whole block straight out of the caller's buffer in one
     call, and buffer the tail. *)
  if ctx.fill = 0 then begin
    let blocks = (len - taken) / 64 in
    if blocks > 0 then compress_blocks ctx b (pos + taken) blocks;
    let rest = len - taken - (blocks * 64) in
    if rest > 0 then begin
      Bytes.blit b (pos + len - rest) ctx.block 0 rest;
      ctx.fill <- rest
    end
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finalize ctx =
  (* Padding: 0x80, zeros, 8-byte big-endian bit length. *)
  let b = ctx.block and fill = ctx.fill in
  Bytes.set b fill '\x80';
  let zeros_from =
    if fill < 56 then fill + 1
    else begin
      Bytes.fill b (fill + 1) (63 - fill) '\000';
      compress_blocks ctx b 0 1;
      0
    end
  in
  Bytes.fill b zeros_from (56 - zeros_from) '\000';
  Bytes.set_int64_be b 56 (Int64.of_int (ctx.total * 8));
  compress_blocks ctx b 0 1;
  ctx.fill <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Bytes.get_int32_ne ctx.h (i * 4))
  done;
  (* [out] is fresh and never escapes as bytes. *)
  Bytes.unsafe_to_string out

(* One-shot digests reuse a scratch context instead of allocating a fresh
   state and block per call. Single-domain only, like [hashed]. *)
let scratch = init ()

let digest msg =
  reset scratch;
  feed scratch msg;
  finalize scratch
