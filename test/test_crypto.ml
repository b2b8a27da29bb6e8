(* Tests for the cryptographic substrate: known-answer vectors for the
   primitives, behavioural tests for signatures, secret sharing and the
   threshold scheme. *)

let qcheck = Replay.qcheck
let sha_hex msg = Util.Hexdump.of_string (Crypto.Sha256.digest msg)

(* --- SHA-256 (FIPS 180-4 / NIST vectors) --- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

(* Both kernels on every vector: the active one (the hardware kernel
   where the CPU has it) and the portable OCaml rounds, so a host with
   the SHA extensions still checks the path hosts without them run. *)
let portable_digest msg =
  let ctx = Crypto.Sha256.portable () in
  Crypto.Sha256.feed ctx msg;
  Crypto.Sha256.finalize ctx

let kernels = [ (Crypto.Sha256.kernel, Crypto.Sha256.digest); ("portable", portable_digest) ]

let check_kernels msg want =
  List.iter
    (fun (kernel, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "%s, %d bytes" kernel (String.length msg))
        want
        (Util.Hexdump.of_string (digest msg)))
    kernels

let test_sha_vectors () = List.iter (fun (msg, want) -> check_kernels msg want) sha_vectors

let test_sha_million_a () =
  check_kernels (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let prop_sha_streaming_matches_oneshot =
  QCheck.Test.make ~name:"streaming = one-shot for any chunking" ~count:200
    QCheck.(pair string (small_list small_nat))
    (fun (s, cuts) ->
      let ctx = Crypto.Sha256.init () in
      let n = String.length s in
      let rec feed pos = function
        | [] -> Crypto.Sha256.feed ctx (String.sub s pos (n - pos))
        | c :: rest ->
          let len = min (c mod 50) (n - pos) in
          Crypto.Sha256.feed ctx (String.sub s pos len);
          feed (pos + len) rest
      in
      feed 0 cuts;
      Crypto.Sha256.finalize ctx = Crypto.Sha256.digest s)

(* Exercise every split position the unboxed core treats differently:
   empty feeds, sub-block fills, the 55/56/57 padding boundary, exact
   block edges, and multi-block tails read straight from the caller's
   buffer. *)
let test_sha_split_points () =
  let msgs =
    List.map fst sha_vectors
    @ [ String.init 200 (fun i -> Char.chr (i land 0xff)); String.make 1000 'q' ]
  in
  let splits = [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 127; 128; 129 ] in
  List.iter
    (fun msg ->
      let n = String.length msg in
      let want = Crypto.Sha256.digest msg in
      List.iter
        (fun cut ->
          if cut <= n then begin
            let ctx = Crypto.Sha256.init () in
            Crypto.Sha256.feed ctx (String.sub msg 0 cut);
            Crypto.Sha256.feed ctx (String.sub msg cut (n - cut));
            Alcotest.(check string)
              (Printf.sprintf "len %d cut %d" n cut)
              (Util.Hexdump.of_string want)
              (Util.Hexdump.of_string (Crypto.Sha256.finalize ctx))
          end)
        splits)
    msgs

let test_sha_copy_branches () =
  let prefix = String.make 70 'p' in
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed ctx prefix;
  let a = Crypto.Sha256.copy ctx in
  let b = Crypto.Sha256.copy ctx in
  Crypto.Sha256.feed a "left";
  Crypto.Sha256.feed b "right-side suffix";
  Alcotest.(check string) "branch a"
    (sha_hex (prefix ^ "left"))
    (Util.Hexdump.of_string (Crypto.Sha256.finalize a));
  Alcotest.(check string) "branch b"
    (sha_hex (prefix ^ "right-side suffix"))
    (Util.Hexdump.of_string (Crypto.Sha256.finalize b));
  (* The original must be unaffected by what its copies hashed. *)
  Crypto.Sha256.feed ctx "tail";
  Alcotest.(check string) "original intact"
    (sha_hex (prefix ^ "tail"))
    (Util.Hexdump.of_string (Crypto.Sha256.finalize ctx))

let test_sha_bytes_hashed_counter () =
  let before = Crypto.Sha256.bytes_hashed () in
  ignore (Crypto.Sha256.digest (String.make 123 'x'));
  let after = Crypto.Sha256.bytes_hashed () in
  Alcotest.(check bool) "counter advanced by at least the input" true (after - before >= 123)

let test_sha_feed_bytes_bounds () =
  let ctx = Crypto.Sha256.init () in
  Alcotest.check_raises "bad range" (Invalid_argument "Sha256.feed_bytes") (fun () ->
      Crypto.Sha256.feed_bytes ctx (Bytes.create 4) ~pos:2 ~len:3)

(* --- SHA-256 against a reference oracle --- *)

(* The straightforward FIPS 180-4 compression loop — one round per
   iteration, every working variable shifted down each round, each word
   assembled from four byte loads — kept as the oracle for the unrolled
   core in [Crypto.Sha256]. Its constants are derived from first
   principles (fractional parts of the square and cube roots of the first
   primes), so the oracle shares no table with the code it checks. *)
module Reference_sha256 = struct
  let mask = 0xffffffff
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let primes =
    let rec sieve acc n =
      if List.length acc = 64 then List.rev acc
      else if List.for_all (fun p -> n mod p <> 0) acc then sieve (n :: acc) (n + 1)
      else sieve acc (n + 1)
    in
    Array.of_list (sieve [] 2)

  let frac_bits x = int_of_float (Float.of_int (1 lsl 32) *. (x -. Float.trunc x))
  let k = Array.map (fun p -> frac_bits (Float.cbrt (float_of_int p))) primes
  let h_init = Array.init 8 (fun i -> frac_bits (Float.sqrt (float_of_int primes.(i))))

  let compress h buf off =
    let w = Array.make 64 0 in
    for i = 0 to 15 do
      let j = off + (i * 4) in
      w.(i) <-
        (Char.code (Bytes.get buf j) lsl 24)
        lor (Char.code (Bytes.get buf (j + 1)) lsl 16)
        lor (Char.code (Bytes.get buf (j + 2)) lsl 8)
        lor Char.code (Bytes.get buf (j + 3))
    done;
    for i = 16 to 63 do
      let x15 = w.(i - 15) and x2 = w.(i - 2) in
      let s0 = rotr x15 7 lxor rotr x15 18 lxor (x15 lsr 3) in
      let s1 = rotr x2 17 lxor rotr x2 19 lxor (x2 lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let e' = !e in
      let s1 = rotr e' 6 lxor rotr e' 11 lxor rotr e' 25 in
      let ch = (e' land !f) lxor (lnot e' land mask land !g) in
      let temp1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
      let a' = !a in
      let s0 = rotr a' 2 lxor rotr a' 13 lxor rotr a' 22 in
      let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
      let temp2 = s0 + maj in
      hh := !g;
      g := !f;
      f := e';
      e := (!d + temp1) land mask;
      d := !c;
      c := !b;
      b := a';
      a := (temp1 + temp2) land mask
    done;
    List.iteri
      (fun i v -> h.(i) <- (h.(i) + v) land mask)
      [ !a; !b; !c; !d; !e; !f; !g; !hh ]

  let digest msg =
    let n = String.length msg in
    let padded = (((n + 8) / 64) + 1) * 64 in
    let buf = Bytes.make padded '\000' in
    Bytes.blit_string msg 0 buf 0 n;
    Bytes.set buf n '\x80';
    Bytes.set_int64_be buf (padded - 8) (Int64.of_int (n * 8));
    let h = Array.copy h_init in
    for block = 0 to (padded / 64) - 1 do
      compress h buf (block * 64)
    done;
    String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") h))
end

let test_sha_reference_vectors () =
  List.iter
    (fun (msg, want) -> Alcotest.(check string) ("reference " ^ msg) want (Reference_sha256.digest msg))
    sha_vectors

(* Feed one chunk either as a string or, at a non-zero [offset], out of
   a larger buffer through [feed_bytes] — the compression function loads
   words straight from the caller's buffer at any alignment. *)
let feed_chunk ctx chunk ~offset =
  if offset = 0 then Crypto.Sha256.feed ctx chunk
  else begin
    let n = String.length chunk in
    let buf = Bytes.make (offset + n + 5) '\xa5' in
    Bytes.blit_string chunk 0 buf offset n;
    Crypto.Sha256.feed_bytes ctx buf ~pos:offset ~len:n
  end

(* A message of 0-3 blocks (the padding edges weighted in), a chunking
   of it with a buffer offset per chunk, the chunk boundary at which to
   branch a copy, and the suffix the copy hashes instead. *)
let sha_case =
  let open QCheck.Gen in
  let len = oneof [ oneofl [ 0; 1; 55; 56; 63; 64; 65; 119; 120; 128; 191; 192 ]; int_bound 192 ] in
  let msg = string_size ~gen:char len in
  let chunks = list_size (int_bound 6) (pair (int_bound 80) (int_bound 7)) in
  let suffix = string_size ~gen:char (int_bound 130) in
  QCheck.make
    ~print:(fun (m, cs, at, sfx) ->
      Printf.sprintf "len %d, chunks [%s], branch at %d, suffix len %d" (String.length m)
        (String.concat "; " (List.map (fun (l, o) -> Printf.sprintf "%d@+%d" l o) cs))
        at (String.length sfx))
    (quad msg chunks (int_bound 7) suffix)

let prop_sha_matches_reference =
  QCheck.Test.make ~name:"matches the reference compression loop" ~count:500 sha_case
    (fun (msg, chunks, branch_at, suffix) ->
      let n = String.length msg in
      let ctx = Crypto.Sha256.init () in
      let branch_ok = ref true in
      let branch pos =
        let copy = Crypto.Sha256.copy ctx in
        feed_chunk copy suffix ~offset:(pos mod 8);
        let got = Util.Hexdump.of_string (Crypto.Sha256.finalize copy) in
        branch_ok := String.equal got (Reference_sha256.digest (String.sub msg 0 pos ^ suffix))
      in
      let rec go pos i = function
        | [] ->
          if i <= branch_at then branch pos;
          feed_chunk ctx (String.sub msg pos (n - pos)) ~offset:0
        | (len, offset) :: rest ->
          if i = branch_at then branch pos;
          let len = min len (n - pos) in
          feed_chunk ctx (String.sub msg pos len) ~offset;
          go (pos + len) (i + 1) rest
      in
      go 0 0 chunks;
      let got = Util.Hexdump.of_string (Crypto.Sha256.finalize ctx) in
      String.equal got (Reference_sha256.digest msg) && !branch_ok)

(* A message of 0-4,200 bytes (so one call can carry many whole
   blocks), cut into chunks of up to 1,500 bytes, each fed through
   [feed_bytes] from a random offset inside a larger buffer. The active
   kernel, fed chunk by chunk, must give the portable kernel's one-shot
   digest. *)
let prop_sha_kernels_agree =
  let gen =
    let open QCheck.Gen in
    let len = oneof [ oneofl [ 0; 63; 64; 128; 129; 1024; 4096; 4200 ]; int_bound 4200 ] in
    pair (string_size ~gen:char len) (list_size (int_bound 8) (pair (int_bound 1500) (int_bound 15)))
  in
  let arb =
    QCheck.make
      ~print:(fun (m, cs) ->
        Printf.sprintf "len %d, chunks [%s]" (String.length m)
          (String.concat "; " (List.map (fun (l, o) -> Printf.sprintf "%d@+%d" l o) cs)))
      gen
  in
  QCheck.Test.make ~name:"active kernel = portable kernel, any chunking and offset" ~count:300 arb
    (fun (msg, chunks) ->
      let n = String.length msg in
      let ctx = Crypto.Sha256.init () in
      let feed_at pos len offset =
        let buf = Bytes.make (offset + len + 7) '\x5a' in
        Bytes.blit_string msg pos buf offset len;
        Crypto.Sha256.feed_bytes ctx buf ~pos:offset ~len
      in
      let pos =
        List.fold_left
          (fun pos (len, offset) ->
            let len = min len (n - pos) in
            feed_at pos len offset;
            pos + len)
          0 chunks
      in
      feed_at pos (n - pos) 3;
      String.equal (Crypto.Sha256.finalize ctx) (portable_digest msg))

(* --- HMAC (RFC 4231) --- *)

let test_hmac_rfc4231 () =
  let check name key msg want =
    Alcotest.(check string) name want
      (Util.Hexdump.of_string (Crypto.Hmac.mac ~key:(Crypto.Hmac.key key) msg))
  in
  check "case 1" (String.make 20 '\x0b') "Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check "case 2" "Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check "case 3" (String.make 20 '\xaa') (String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  (* case 6: key longer than the block size *)
  check "case 6" (String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

(* A key prepares its midstates on its first tag; the tags before and
   after, and those of another key value with the same bytes, agree. *)
let test_hmac_prepared_key () =
  let msg = "m" in
  let key = Crypto.Hmac.key "k" in
  Alcotest.(check string) "key bytes" "k" (Crypto.Hmac.key_bytes key);
  let first = Crypto.Hmac.mac ~key msg in
  Alcotest.(check string) "prepared key, same tag" first (Crypto.Hmac.mac ~key msg);
  Alcotest.(check string) "another value of the same bytes" first
    (Crypto.Hmac.mac ~key:(Crypto.Hmac.key "k") msg);
  Alcotest.(check bool) "another message differs" true
    (first <> Crypto.Hmac.mac ~key "m2");
  Alcotest.(check bool) "another key differs" true
    (first <> Crypto.Hmac.mac ~key:(Crypto.Hmac.key "k2") msg)

(* A prepared key's midstates are restored into one reused working
   context, so a tag allocates only its two 32-byte digests. Copying
   each midstate, as before, cost 60 words; preparing the key on every
   call, as a key built per message would, costs about 107. *)
let test_hmac_minor_words () =
  let key = Crypto.Hmac.key (String.make 16 'k') and msg = String.make 1024 'm' in
  ignore (Crypto.Hmac.mac ~key msg);
  let calls = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Crypto.Hmac.mac ~key msg))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per 1 KiB mac (at most 16)" per_call)
    true (per_call <= 16.0)

(* --- short MACs --- *)

let test_mac_basic () =
  let rng = Util.Rng.create 1 in
  let key = Crypto.Mac.fresh_key rng in
  let tag = Crypto.Mac.compute ~key "payload" in
  Alcotest.(check int) "tag size" Crypto.Mac.tag_size (String.length tag);
  Alcotest.(check bool) "verifies" true (Crypto.Mac.verify ~key "payload" ~tag);
  Alcotest.(check bool) "rejects" false (Crypto.Mac.verify ~key "other" ~tag)

(* A tag depends only on the key bytes and the message bytes: a
   content-equal copy of the message and a key rebuilt from a session-key
   box both give the same tag. *)
let test_mac_key_bytes () =
  let rng = Util.Rng.create 7 in
  let key = Crypto.Mac.fresh_key rng in
  let key' = Crypto.Mac.fresh_key rng in
  let msg = "the same wire bytes, shared across receivers" in
  let tag = Crypto.Mac.compute ~key msg in
  Alcotest.(check string) "stable on repeat" tag (Crypto.Mac.compute ~key msg);
  let copy = String.sub msg 0 (String.length msg) in
  Alcotest.(check bool) "fresh allocation" true (copy != msg);
  Alcotest.(check string) "content-equal copy matches" tag (Crypto.Mac.compute ~key copy);
  let boxed = Crypto.Mac.key_of_bytes (Crypto.Mac.key_bytes key) in
  Alcotest.(check bool) "rebuilt key is equal" true (Crypto.Mac.equal_key key boxed);
  Alcotest.(check string) "rebuilt key, same tag" tag (Crypto.Mac.compute ~key:boxed msg);
  Alcotest.(check bool) "other key is not equal" false (Crypto.Mac.equal_key key key');
  Alcotest.(check bool) "different key differs" (tag <> Crypto.Mac.compute ~key:key' msg) true;
  Alcotest.(check bool) "verify accepts" true (Crypto.Mac.verify ~key msg ~tag);
  Alcotest.(check bool) "verify rejects wrong tag" false
    (Crypto.Mac.verify ~key msg ~tag:(String.make Crypto.Mac.tag_size '\x00'))

(* --- authenticators --- *)

let test_authenticator () =
  let rng = Util.Rng.create 2 in
  let keys = List.init 4 (fun i -> (i, Crypto.Mac.fresh_key rng)) in
  let auth = Crypto.Authenticator.compute ~keys "msg" in
  List.iter
    (fun (i, key) ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d accepts" i)
        true
        (Crypto.Authenticator.check ~key ~replica:i "msg" auth))
    keys;
  let _, k0 = List.hd keys in
  Alcotest.(check bool) "wrong replica entry" false
    (Crypto.Authenticator.check ~key:k0 ~replica:1 "msg" auth);
  Alcotest.(check bool) "missing entry" false
    (Crypto.Authenticator.check ~key:k0 ~replica:9 "msg" auth);
  Alcotest.(check bool) "tampered message" false
    (Crypto.Authenticator.check ~key:k0 ~replica:0 "msG" auth)

let test_authenticator_codec () =
  let rng = Util.Rng.create 3 in
  let keys = List.init 3 (fun i -> (i, Crypto.Mac.fresh_key rng)) in
  let auth = Crypto.Authenticator.compute ~keys "m" in
  let wire = Util.Codec.encode Crypto.Authenticator.encode auth in
  let back = Util.Codec.decode Crypto.Authenticator.decode wire in
  List.iter
    (fun (i, key) ->
      Alcotest.(check bool) "decoded verifies" true
        (Crypto.Authenticator.check ~key ~replica:i "m" back))
    keys

(* A tag the sender made under a key equal to the checker's is accepted
   as the sender's account says; any other entry is recomputed, so a
   wrong key, a tampered message or a missing entry still fail. *)
let test_authenticator_sender_keys () =
  let rng = Util.Rng.create 4 in
  let keys = List.init 3 (fun i -> (i, Crypto.Mac.fresh_key rng)) in
  let auth = Crypto.Authenticator.compute ~keys "m" in
  let k1 = List.assoc 1 keys in
  let boxed = Crypto.Mac.key_of_bytes (Crypto.Mac.key_bytes k1) in
  let check ?sender_keys ~key ~replica msg =
    Crypto.Authenticator.check ~key ~replica ?sender_keys msg auth
  in
  Alcotest.(check bool) "noted key equal to the held one" true
    (check ~sender_keys:keys ~key:boxed ~replica:1 "m");
  Alcotest.(check bool) "held key differs: recomputed, fails" false
    (check ~sender_keys:keys ~key:(Crypto.Mac.fresh_key rng) ~replica:1 "m");
  Alcotest.(check bool) "no noted key for this replica: recomputed" true
    (check ~sender_keys:[ (0, List.assoc 0 keys) ] ~key:boxed ~replica:1 "m");
  Alcotest.(check bool) "missing entry" false
    (check ~sender_keys:[ (7, k1) ] ~key:k1 ~replica:7 "m");
  Alcotest.(check bool) "without sender keys, tampered message fails" false
    (check ~key:boxed ~replica:1 "M")

(* --- Rabin signatures --- *)

let rabin_kp = lazy (Crypto.Rabin.generate (Util.Rng.create 11) ~bits:256)

let test_rabin_sign_verify () =
  let kp = Lazy.force rabin_kp in
  let pk = Crypto.Rabin.public kp in
  List.iter
    (fun msg ->
      let s = Crypto.Rabin.sign kp msg in
      Alcotest.(check bool) ("verifies: " ^ msg) true (Crypto.Rabin.verify pk msg s))
    [ ""; "x"; "a longer message with some content"; String.make 5000 'z' ]

let test_rabin_rejects () =
  let kp = Lazy.force rabin_kp in
  let pk = Crypto.Rabin.public kp in
  let s = Crypto.Rabin.sign kp "message" in
  Alcotest.(check bool) "wrong message" false (Crypto.Rabin.verify pk "messagf" s);
  let other = Crypto.Rabin.generate (Util.Rng.create 12) ~bits:256 in
  Alcotest.(check bool) "wrong key" false
    (Crypto.Rabin.verify (Crypto.Rabin.public other) "message" s);
  let tampered = { s with Crypto.Rabin.counter = s.Crypto.Rabin.counter + 1 } in
  Alcotest.(check bool) "tampered counter" false (Crypto.Rabin.verify pk "message" tampered)

let test_rabin_wire () =
  let kp = Lazy.force rabin_kp in
  let pk = Crypto.Rabin.public kp in
  let s = Crypto.Rabin.sign kp "wire" in
  (match Crypto.Rabin.signature_of_string (Crypto.Rabin.signature_to_string s) with
  | Some s' -> Alcotest.(check bool) "sig roundtrip verifies" true (Crypto.Rabin.verify pk "wire" s')
  | None -> Alcotest.fail "sig decode");
  (match Crypto.Rabin.public_of_string (Crypto.Rabin.public_to_string pk) with
  | Some pk' -> Alcotest.(check bool) "pk roundtrip verifies" true (Crypto.Rabin.verify pk' "wire" s)
  | None -> Alcotest.fail "pk decode");
  Alcotest.(check (option pass)) "garbage sig" None
    (Option.map ignore (Crypto.Rabin.signature_of_string "\x01"))

(* --- keychain --- *)

let test_keychain_modes () =
  let rng = Util.Rng.create 21 in
  List.iter
    (fun mode ->
      let signer = Crypto.Keychain.make mode rng ~id:5 in
      let v = Crypto.Keychain.verifier_of signer in
      let s = Crypto.Keychain.sign signer "msg" in
      Alcotest.(check bool) "verifies" true (Crypto.Keychain.verify v "msg" ~signature:s);
      Alcotest.(check bool) "rejects" false (Crypto.Keychain.verify v "other" ~signature:s);
      Alcotest.(check int) "ids" 5 (Crypto.Keychain.verifier_id v);
      match Crypto.Keychain.verifier_of_string (Crypto.Keychain.verifier_to_string v) with
      | Some v' ->
        Alcotest.(check bool) "roundtripped verifier works" true
          (Crypto.Keychain.verify v' "msg" ~signature:s)
      | None -> Alcotest.fail "verifier decode")
    [ Crypto.Keychain.Simulated; Crypto.Keychain.Real 256 ]

(* A slice [~pos ~len] authenticates exactly what a copy of it would,
   for every primitive a frame is sealed and checked with: the bytes
   around the slice change nothing, a byte inside it changes the verdict,
   and the sizes a frame reserves are the sizes written. *)
let test_slices () =
  let rng = Util.Rng.create 23 in
  let frame = "head|" ^ String.make 300 'p' ^ "|tail" and pos = 5 and len = 300 in
  let payload = String.sub frame pos len in
  let other = "HEAD|" ^ payload ^ "|TAIL" in
  let flipped = Bytes.of_string frame in
  Bytes.set flipped (pos + len - 1) 'q';
  let flipped = Bytes.to_string flipped in
  let hkey = Crypto.Hmac.key "k" in
  Alcotest.(check string) "hmac" (Crypto.Hmac.mac ~key:hkey payload)
    (Crypto.Hmac.mac ~key:hkey ~pos ~len frame);
  let keys = List.init 3 (fun i -> (i, Crypto.Mac.fresh_key rng)) in
  let auth = Crypto.Authenticator.compute ~keys ~pos ~len frame in
  Alcotest.(check bool) "tags as over a copy" true (auth = Crypto.Authenticator.compute ~keys payload);
  Alcotest.(check int) "size_for"
    (String.length (Util.Codec.encode Crypto.Authenticator.encode auth))
    (Crypto.Authenticator.size_for ~keys);
  List.iter
    (fun (i, key) ->
      Alcotest.(check bool) "check over the slice" true
        (Crypto.Authenticator.check ~key ~replica:i ~pos ~len other auth);
      Alcotest.(check bool) "a flipped payload byte fails" false
        (Crypto.Authenticator.check ~key ~replica:i ~pos ~len flipped auth))
    keys;
  List.iter
    (fun mode ->
      let signer = Crypto.Keychain.make mode rng ~id:2 in
      let v = Crypto.Keychain.verifier_of signer in
      let s = Crypto.Keychain.sign signer ~pos ~len frame in
      Alcotest.(check int) "signature_size" (Crypto.Keychain.signature_size signer) (String.length s);
      Alcotest.(check bool) "signature over the slice" true
        (Crypto.Keychain.verify v payload ~signature:s
        && Crypto.Keychain.verify v ~pos ~len other ~signature:s);
      Alcotest.(check bool) "a flipped payload byte fails" false
        (Crypto.Keychain.verify v ~pos ~len flipped ~signature:s))
    [ Crypto.Keychain.Simulated; Crypto.Keychain.Real 256 ]

(* --- Shamir secret sharing --- *)

let field = lazy (Bignum.Prime.generate (Util.Rng.create 31) ~bits:80)

let test_shamir_reconstruct_subsets () =
  let rng = Util.Rng.create 32 in
  let field = Lazy.force field in
  let secret = Bignum.Nat.random_below rng field in
  let shares = Crypto.Shamir.split rng ~field ~threshold:3 ~shares:6 secret in
  let subset idxs = List.filteri (fun i _ -> List.mem i idxs) shares in
  List.iter
    (fun idxs ->
      let got = Crypto.Shamir.combine ~field (subset idxs) in
      Alcotest.(check string) "reconstructs" (Bignum.Nat.to_hex secret) (Bignum.Nat.to_hex got))
    [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 0; 2; 4 ]; [ 1; 3; 5 ]; [ 0; 1; 2; 3; 4; 5 ] ]

let test_shamir_too_few_shares () =
  let rng = Util.Rng.create 33 in
  let field = Lazy.force field in
  let secret = Bignum.Nat.random_below rng field in
  let shares = Crypto.Shamir.split rng ~field ~threshold:3 ~shares:5 secret in
  let two = List.filteri (fun i _ -> i < 2) shares in
  (* Two shares interpolate to *some* value, almost surely not the
     secret. *)
  let got = Crypto.Shamir.combine ~field two in
  Alcotest.(check bool) "2 shares reveal nothing" false (Bignum.Nat.equal got secret)

let test_shamir_bad_params () =
  let rng = Util.Rng.create 34 in
  let field = Lazy.force field in
  Alcotest.check_raises "bad threshold" (Invalid_argument "Shamir.split: bad threshold")
    (fun () -> ignore (Crypto.Shamir.split rng ~field ~threshold:5 ~shares:3 Bignum.Nat.one))

(* --- threshold RSA --- *)

let threshold_key = lazy (Crypto.Threshold.deal (Util.Rng.create 41) ~bits:160 ~threshold:3 ~parties:5)

let test_threshold_combine_any_subset () =
  let pk, shares = Lazy.force threshold_key in
  let msg = "threshold message" in
  let partials idxs =
    List.filteri (fun i _ -> List.mem i idxs) shares
    |> List.map (fun sh -> Crypto.Threshold.partial_sign pk sh msg)
  in
  List.iter
    (fun idxs ->
      match Crypto.Threshold.combine pk msg (partials idxs) with
      | Some s -> Alcotest.(check bool) "verifies" true (Crypto.Threshold.verify pk msg s)
      | None -> Alcotest.fail "combine failed")
    [ [ 0; 1; 2 ]; [ 2; 3; 4 ]; [ 0; 2; 4 ]; [ 0; 1; 2; 3; 4 ] ]

let test_threshold_too_few () =
  let pk, shares = Lazy.force threshold_key in
  let msg = "m" in
  let partials =
    List.filteri (fun i _ -> i < 2) shares
    |> List.map (fun sh -> Crypto.Threshold.partial_sign pk sh msg)
  in
  Alcotest.(check bool) "2 of 3 insufficient" true (Crypto.Threshold.combine pk msg partials = None)

let test_threshold_corrupt_partial () =
  let pk, shares = Lazy.force threshold_key in
  let msg = "m2" in
  let partials =
    List.filteri (fun i _ -> i < 3) shares
    |> List.map (fun sh -> Crypto.Threshold.partial_sign pk sh msg)
  in
  let corrupted =
    match partials with
    | p :: rest -> { p with Crypto.Threshold.value = Bignum.Nat.add p.Crypto.Threshold.value Bignum.Nat.one } :: rest
    | [] -> []
  in
  Alcotest.(check bool) "corrupt partial detected" true
    (Crypto.Threshold.combine pk msg corrupted = None)

let test_threshold_wrong_message () =
  let pk, shares = Lazy.force threshold_key in
  let partials =
    List.filteri (fun i _ -> i < 3) shares
    |> List.map (fun sh -> Crypto.Threshold.partial_sign pk sh "right")
  in
  match Crypto.Threshold.combine pk "right" partials with
  | Some s -> Alcotest.(check bool) "other message rejected" false (Crypto.Threshold.verify pk "wrong" s)
  | None -> Alcotest.fail "combine failed"

let test_threshold_duplicate_partials () =
  let pk, shares = Lazy.force threshold_key in
  let msg = "dup" in
  let p0 = Crypto.Threshold.partial_sign pk (List.nth shares 0) msg in
  let p1 = Crypto.Threshold.partial_sign pk (List.nth shares 1) msg in
  (* Duplicates of the same party must not count toward the threshold. *)
  Alcotest.(check bool) "duplicates rejected" true
    (Crypto.Threshold.combine pk msg [ p0; p0; p0; p1 ] = None)

(* --- total decoders: threshold signatures and authenticators --- *)

let gen_id = QCheck.Gen.(oneof [ nat; map (fun i -> i land max_int) int ])
let gen_bytes = QCheck.Gen.(string_size (int_bound 64))

let threshold_partial_codec =
  Mutants.properties ~name:"threshold partial" ~encode:Crypto.Threshold.partial_to_string
    ~decode:Crypto.Threshold.partial_of_string
    ~equal:(fun (a : Crypto.Threshold.partial) (b : Crypto.Threshold.partial) ->
      a.party = b.party && Bignum.Nat.equal a.value b.value)
    QCheck.Gen.(
      map2 (fun party s -> { Crypto.Threshold.party; value = Bignum.Nat.of_bytes_be s }) gen_id gen_bytes)

let threshold_signature_codec =
  Mutants.properties ~name:"threshold signature" ~encode:Crypto.Threshold.signature_to_string
    ~decode:Crypto.Threshold.signature_of_string ~equal:Bignum.Nat.equal
    (QCheck.Gen.map Bignum.Nat.of_bytes_be gen_bytes)

(* A reader: a short or malformed vector may raise [Truncated], and
   nothing else. *)
let authenticator_codec =
  Mutants.properties ~name:"authenticator" ~encode:(Util.Codec.encode Crypto.Authenticator.encode)
    ~decode:(fun s ->
      match Util.Codec.decode Crypto.Authenticator.decode s with
      | a -> Some a
      | exception Util.Codec.R.Truncated -> None)
    ~equal:( = )
    QCheck.Gen.(
      map
        (fun tags -> { Crypto.Authenticator.tags })
        (list_size (int_bound 6) (pair (int_bound 0xffff) (string_size (int_bound 40)))))

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha_vectors;
          Alcotest.test_case "million a" `Slow test_sha_million_a;
          Alcotest.test_case "feed_bytes bounds" `Quick test_sha_feed_bytes_bounds;
          Alcotest.test_case "incremental split points" `Quick test_sha_split_points;
          Alcotest.test_case "copy branches" `Quick test_sha_copy_branches;
          Alcotest.test_case "bytes_hashed counter" `Quick test_sha_bytes_hashed_counter;
          qcheck prop_sha_streaming_matches_oneshot;
          Alcotest.test_case "reference oracle vectors" `Quick test_sha_reference_vectors;
          qcheck prop_sha_matches_reference;
          qcheck prop_sha_kernels_agree;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "prepared key" `Quick test_hmac_prepared_key;
          Alcotest.test_case "minor words per mac" `Quick test_hmac_minor_words;
        ] );
      ( "mac",
        [
          Alcotest.test_case "basics" `Quick test_mac_basic;
          Alcotest.test_case "key bytes" `Quick test_mac_key_bytes;
        ] );
      ( "authenticator",
        [
          Alcotest.test_case "per-replica tags" `Quick test_authenticator;
          Alcotest.test_case "wire codec" `Quick test_authenticator_codec;
          Alcotest.test_case "sender keys" `Quick test_authenticator_sender_keys;
        ]
        @ List.map qcheck authenticator_codec );
      ( "rabin",
        [
          Alcotest.test_case "sign/verify" `Quick test_rabin_sign_verify;
          Alcotest.test_case "rejections" `Quick test_rabin_rejects;
          Alcotest.test_case "wire" `Quick test_rabin_wire;
        ] );
      ( "keychain",
        [
          Alcotest.test_case "both modes" `Quick test_keychain_modes;
          Alcotest.test_case "slices" `Quick test_slices;
        ] );
      ( "shamir",
        [
          Alcotest.test_case "reconstruct from any k" `Quick test_shamir_reconstruct_subsets;
          Alcotest.test_case "k-1 shares insufficient" `Quick test_shamir_too_few_shares;
          Alcotest.test_case "bad parameters" `Quick test_shamir_bad_params;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "any k subset combines" `Quick test_threshold_combine_any_subset;
          Alcotest.test_case "k-1 insufficient" `Quick test_threshold_too_few;
          Alcotest.test_case "corrupt partial" `Quick test_threshold_corrupt_partial;
          Alcotest.test_case "wrong message" `Quick test_threshold_wrong_message;
          Alcotest.test_case "duplicate partials" `Quick test_threshold_duplicate_partials;
        ]
        @ List.map qcheck (threshold_partial_codec @ threshold_signature_codec) );
    ]
