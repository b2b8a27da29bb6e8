(* Unit and property tests for the foundation utilities. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- Codec --- *)

let roundtrip enc dec v = Util.Codec.decode dec (Util.Codec.encode enc v)

let test_codec_primitives () =
  let module W = Util.Codec.W in
  let module R = Util.Codec.R in
  Alcotest.(check int) "u8" 255 (roundtrip W.u8 R.u8 255);
  Alcotest.(check int) "u16" 65535 (roundtrip W.u16 R.u16 65535);
  Alcotest.(check int) "u32" 0xDEADBEEF (roundtrip W.u32 R.u32 0xDEADBEEF);
  Alcotest.(check int64) "u64" Int64.min_int (roundtrip W.u64 R.u64 Int64.min_int);
  Alcotest.(check (float 1e-12)) "f64" 3.14159 (roundtrip W.f64 R.f64 3.14159);
  Alcotest.(check bool) "bool true" true (roundtrip W.bool R.bool true);
  Alcotest.(check bool) "bool false" false (roundtrip W.bool R.bool false);
  Alcotest.(check string) "lstring" "hello" (roundtrip W.lstring R.lstring "hello");
  Alcotest.(check string) "lstring empty" "" (roundtrip W.lstring R.lstring "")

let test_codec_varint_boundaries () =
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "varint %d" v)
        v
        (roundtrip Util.Codec.W.varint Util.Codec.R.varint v))
    [ 0; 1; 127; 128; 129; 16383; 16384; 1 lsl 20; 1 lsl 35; max_int ]

let test_codec_varint_negative () =
  Alcotest.check_raises "negative rejected" (Invalid_argument "Codec.W.varint: negative")
    (fun () -> ignore (Util.Codec.encode Util.Codec.W.varint (-1)))

let test_codec_list_option () =
  let enc w l = Util.Codec.W.list w Util.Codec.W.varint l in
  let dec r = Util.Codec.R.list r Util.Codec.R.varint in
  Alcotest.(check (list int)) "list" [ 1; 2; 3; 500 ] (roundtrip enc dec [ 1; 2; 3; 500 ]);
  Alcotest.(check (list int)) "empty list" [] (roundtrip enc dec []);
  let enco w o = Util.Codec.W.option w Util.Codec.W.lstring o in
  let deco r = Util.Codec.R.option r Util.Codec.R.lstring in
  Alcotest.(check (option string)) "some" (Some "x") (roundtrip enco deco (Some "x"));
  Alcotest.(check (option string)) "none" None (roundtrip enco deco None)

let test_codec_truncation () =
  let full = Util.Codec.encode Util.Codec.W.lstring "hello world" in
  let cut = String.sub full 0 (String.length full - 3) in
  Alcotest.check_raises "truncated" Util.Codec.R.Truncated (fun () ->
      ignore (Util.Codec.decode Util.Codec.R.lstring cut))

let test_codec_trailing_garbage () =
  let full = Util.Codec.encode Util.Codec.W.varint 7 ^ "garbage" in
  Alcotest.check_raises "trailing" Util.Codec.R.Truncated (fun () ->
      ignore (Util.Codec.decode Util.Codec.R.varint full))

(* The Bytes writer must be byte-for-byte compatible with the original
   Buffer-based writer it replaced; the reference implementation lives
   here, frozen. *)
module RefW = struct
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u16 b v =
    u8 b v;
    u8 b (v lsr 8)

  let u32 b v =
    u16 b v;
    u16 b (v lsr 16)

  let u64 b v = Buffer.add_int64_le b v
  let f64 b v = u64 b (Int64.bits_of_float v)

  let rec varint b v =
    if v < 0x80 then u8 b v
    else begin
      u8 b (0x80 lor (v land 0x7f));
      varint b (v lsr 7)
    end

  let bool b v = u8 b (if v then 1 else 0)

  let lstring b s =
    varint b (String.length s);
    Buffer.add_string b s
end

type wop =
  | OU8 of int
  | OU16 of int
  | OU32 of int
  | OU64 of int64
  | OF64 of float
  | OVarint of int
  | OBool of bool
  | OStr of string
  | OLStr of string

let apply_w w = function
  | OU8 v -> Util.Codec.W.u8 w v
  | OU16 v -> Util.Codec.W.u16 w v
  | OU32 v -> Util.Codec.W.u32 w v
  | OU64 v -> Util.Codec.W.u64 w v
  | OF64 v -> Util.Codec.W.f64 w v
  | OVarint v -> Util.Codec.W.varint w v
  | OBool v -> Util.Codec.W.bool w v
  | OStr s -> Util.Codec.W.string w s
  | OLStr s -> Util.Codec.W.lstring w s

let apply_ref b = function
  | OU8 v -> RefW.u8 b v
  | OU16 v -> RefW.u16 b v
  | OU32 v -> RefW.u32 b v
  | OU64 v -> RefW.u64 b v
  | OF64 v -> RefW.f64 b v
  | OVarint v -> RefW.varint b v
  | OBool v -> RefW.bool b v
  | OStr s -> Buffer.add_string b s
  | OLStr s -> RefW.lstring b s

let gen_wop =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> OU8 v) (int_bound 255);
        map (fun v -> OU16 v) (int_bound 65535);
        map (fun v -> OU32 v) (int_bound 0xffffff);
        map (fun v -> OU64 v) ui64;
        map (fun v -> OF64 v) float;
        map (fun v -> OVarint (v land max_int)) int;
        map (fun v -> OBool v) bool;
        map (fun s -> OStr s) string;
        map (fun s -> OLStr s) string;
      ])

let prop_writer_matches_reference =
  QCheck.Test.make ~name:"Bytes writer = reference Buffer writer" ~count:1000
    (QCheck.make QCheck.Gen.(list_size (int_bound 40) gen_wop))
    (fun ops ->
      let b = Buffer.create 16 in
      List.iter (apply_ref b) ops;
      let expected = Buffer.contents b in
      let encode size =
        let len = ref (-1) in
        let s =
          Util.Codec.encode ?size
            (fun w ops ->
              List.iter (apply_w w) ops;
              len := Util.Codec.W.length w)
            ops
        in
        String.equal s expected && !len = Buffer.length b
      in
      (* Counted (the default), growing from nothing and from one byte,
         given the exact size (the buffer handed over), and one byte too
         large (copied out). *)
      List.for_all encode
        [ None; Some 0; Some 1; Some (String.length expected); Some (String.length expected + 1) ])

(* The size pass: a counting writer runs the same encoder and reads the
   length a writing one writes, and [varint_size] counts a varint. *)
let prop_counting_writer =
  QCheck.Test.make ~name:"counting writer = written length" ~count:1000
    (QCheck.make QCheck.Gen.(list_size (int_bound 40) gen_wop))
    (fun ops ->
      let b = Buffer.create 16 in
      List.iter (apply_ref b) ops;
      Util.Codec.size (fun w ops -> List.iter (apply_w w) ops) ops = Buffer.length b
      && List.for_all
           (fun v ->
             Util.Codec.W.varint_size v = String.length (Util.Codec.encode Util.Codec.W.varint v))
           (List.filter_map (function OVarint v -> Some v | _ -> None) ops
           @ [ 0; 127; 128; 16383; 16384; max_int ]))

let test_codec_varint_overflow_guard () =
  let dec s = Util.Codec.R.varint (Util.Codec.R.of_string s) in
  (* max_int is the longest legal varint: 8 continuation bytes + 0x3f. *)
  Alcotest.(check int) "max_int decodes" max_int (dec "\xff\xff\xff\xff\xff\xff\xff\xff\x3f");
  (* 9th byte above 0x3f would wrap into the sign bit. *)
  Alcotest.check_raises "9th byte too large" Util.Codec.R.Truncated (fun () ->
      ignore (dec "\xff\xff\xff\xff\xff\xff\xff\xff\x40"));
  (* Overlong encodings can neither loop nor go negative. *)
  Alcotest.check_raises "10-byte varint" Util.Codec.R.Truncated (fun () ->
      ignore (dec "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"));
  Alcotest.check_raises "all continuations" Util.Codec.R.Truncated (fun () ->
      ignore (dec (String.make 12 '\xff')))

let prop_varint_decode_never_negative =
  QCheck.Test.make ~name:"varint decode never returns negative" ~count:1000
    QCheck.(string_of_size (QCheck.Gen.int_bound 12))
    (fun s ->
      match Util.Codec.R.varint (Util.Codec.R.of_string s) with
      | v -> v >= 0
      | exception Util.Codec.R.Truncated -> true)

let prop_codec_string_roundtrip =
  QCheck.Test.make ~name:"codec lstring roundtrip" ~count:500 QCheck.string (fun s ->
      roundtrip Util.Codec.W.lstring Util.Codec.R.lstring s = s)

let prop_codec_varint_roundtrip =
  QCheck.Test.make ~name:"codec varint roundtrip" ~count:500
    QCheck.(map abs int)
    (fun v -> roundtrip Util.Codec.W.varint Util.Codec.R.varint v = v)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Util.Rng.create 7 and b = Util.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.next_int64 a) (Util.Rng.next_int64 b)
  done

(* The first eight draws of each kind for seeds 0, 1 and 7. Every
   stochastic decision of a run comes from these streams, so a change to
   the generator's representation must leave them bit for bit. Per seed:
   [next_int64], [int _ 1_000_003], [float _ 1.0], [bool], and
   [next_int64] of a [split] child; each stream from a fresh
   [create seed]. *)
let rng_pins =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L; -537132696929009172L; 1961750202426094747L; 6038094601263162090L; 3207296026000306913L; -4214222208109204676L ],
      [ 1248; 607872; 218951; 899533; 285792; 425248; 273623; 710615 ],
      [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6; 0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2; 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ],
      [ true; false; true; false; true; false; true; false ],
      [ 6235967106033911276L; 4964577235801436555L; 5009519748041543987L; 8857564815614722297L; -7432591663424338554L; 8004654500507590149L; 1708471288419529626L; 3819264574858199387L ] );
    ( 1,
      [ -4616330145664149646L; 6869446166584666695L; 8084911050856847527L; -846397198931878612L; 3727343498630883515L; -7456765501708208026L; 8407459800431601144L; 3430088234347965294L ],
      [ 22796; 997945; 114734; 862832; 483404; 134274; 966693; 533239 ],
      [ 0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2; 0x1.e881fc76c58f3p-1; 0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1; 0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3 ],
      [ false; true; true; false; true; false; false; false ],
      [ -1089616305791727635L; -3855612761959285454L; 5148181706967588405L; 1996454957195969603L; 2068421254154566536L; 7428429366837071772L; -6175126042729843156L; -2637658771003853103L ] );
    ( 7,
      [ -8774268681488515761L; 5573481420429128725L; -1088427420777695408L; -2154039811576856741L; -6203870116991129099L; 6356872459430266104L; 7350602455885783398L; -7292045186689573744L ],
      [ 477803; 757157; 530450; 635595; 684476; 524875; 142741; 927203 ],
      [ 0x1.0c77123e98157p-1; 0x1.3563ef4a0babcp-2; 0x1.e1ca420e19806p-1; 0x1.c436a0686dd2fp-1; 0x1.53ced9ff082a5p-1; 0x1.60e097496b38p-2; 0x1.980a57f430be8p-2; 0x1.359ae713428abp-1 ],
      [ true; true; false; true; true; false; false; false ],
      [ -8329645779151318480L; 6560957319516933143L; 3429778984135255602L; 6144901677373588850L; -6923240325024990461L; -4601948036238656604L; -3485044167145460862L; -3350620398543257644L ] );
  ]

let test_rng_pinned_streams () =
  let take n f = List.init n (fun _ -> f ()) in
  List.iter
    (fun (seed, i64, ints, floats, bools, child) ->
      let fresh () = Util.Rng.create seed in
      let name what = Printf.sprintf "seed %d %s" seed what in
      let t = fresh () in
      Alcotest.(check (list int64)) (name "next_int64") i64 (take 8 (fun () -> Util.Rng.next_int64 t));
      let t = fresh () in
      Alcotest.(check (list int)) (name "int") ints (take 8 (fun () -> Util.Rng.int t 1_000_003));
      let t = fresh () in
      Alcotest.(check (list (float 0.0))) (name "float") floats
        (take 8 (fun () -> Util.Rng.float t 1.0));
      let t = fresh () in
      Alcotest.(check (list bool)) (name "bool") bools (take 8 (fun () -> Util.Rng.bool t));
      let c = Util.Rng.split (fresh ()) in
      Alcotest.(check (list int64)) (name "split child") child
        (take 8 (fun () -> Util.Rng.next_int64 c)))
    rng_pins

let test_rng_split_independent () =
  let a = Util.Rng.create 7 in
  let child = Util.Rng.split a in
  let differs = ref false in
  for _ = 1 to 20 do
    if Util.Rng.next_int64 a <> Util.Rng.next_int64 child then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_int_bounds () =
  let rng = Util.Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_bounds () =
  let rng = Util.Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_rng_bernoulli () =
  let rng = Util.Rng.create 4 in
  Alcotest.(check bool) "p=0 never" false
    (List.exists (fun _ -> Util.Rng.bernoulli rng 0.0) (List.init 100 Fun.id));
  Alcotest.(check bool) "p=1 always" true
    (List.for_all (fun _ -> Util.Rng.bernoulli rng 1.0) (List.init 100 Fun.id));
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Util.Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. 100_000.0 in
  if Float.abs (freq -. 0.3) > 0.02 then Alcotest.failf "bernoulli biased: %f" freq

let test_rng_exponential_mean () =
  let rng = Util.Rng.create 5 in
  let s = Util.Stats.create () in
  for _ = 1 to 50_000 do
    Util.Stats.add s (Util.Rng.exponential rng ~mean:3.0)
  done;
  if Float.abs (Util.Stats.mean s -. 3.0) > 0.1 then
    Alcotest.failf "exponential mean off: %f" (Util.Stats.mean s)

let test_rng_gaussian_moments () =
  let rng = Util.Rng.create 6 in
  let s = Util.Stats.create () in
  for _ = 1 to 50_000 do
    Util.Stats.add s (Util.Rng.gaussian rng ~mean:10.0 ~stdev:2.0)
  done;
  if Float.abs (Util.Stats.mean s -. 10.0) > 0.1 then Alcotest.fail "gaussian mean off";
  let var =
    Float.Array.fold_left
      (fun acc x -> acc +. ((x -. Util.Stats.mean s) ** 2.0))
      0.0 (Util.Stats.samples s)
    /. 49_999.0
  in
  if Float.abs (sqrt var -. 2.0) > 0.1 then Alcotest.fail "gaussian stdev off"

(* --- Stats --- *)

let test_stats_known_values () =
  let s = Util.Stats.create () in
  List.iter (Util.Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Util.Stats.mean s);
  let sorted = Util.Stats.samples s in
  Alcotest.(check (float 0.0)) "min" 2.0 (Float.Array.get sorted 0);
  Alcotest.(check (float 0.0)) "max" 9.0 (Float.Array.get sorted 7);
  Alcotest.(check int) "count" 8 (Float.Array.length sorted)

let test_stats_percentiles () =
  let s = Util.Stats.create () in
  for i = 1 to 100 do
    Util.Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "p50" 50.0 (Util.Stats.percentile s 50.0);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Util.Stats.percentile s 99.0);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Util.Stats.percentile s 100.0)

let test_stats_empty () =
  let s = Util.Stats.create () in
  Alcotest.(check (float 0.0)) "mean 0" 0.0 (Util.Stats.mean s);
  Alcotest.check_raises "percentile raises" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Util.Stats.percentile s 50.0))

let test_stats_latency_percentiles () =
  let s = Util.Stats.create () in
  for i = 1 to 100 do
    Util.Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "p50" 50.0 (Util.Stats.p50 s);
  Alcotest.(check (float 0.0)) "p95" 95.0 (Util.Stats.p95 s);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Util.Stats.p99 s);
  (* Unlike [percentile], the shorthands are total: empty stats read 0. *)
  let e = Util.Stats.create () in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Util.Stats.p50 e);
  Alcotest.(check (float 0.0)) "empty p95" 0.0 (Util.Stats.p95 e);
  Alcotest.(check (float 0.0)) "empty p99" 0.0 (Util.Stats.p99 e)

(* The list-backed accumulator [Util.Stats] replaced, kept as the
   reference: samples consed onto a list, copied and sorted per query. *)
module Ref_stats = struct
  type t = {
    mutable samples : float list;
    mutable n : int;
    mutable sum : float;
  }

  let create () = { samples = []; n = 0; sum = 0.0 }

  let add t x =
    t.samples <- x :: t.samples;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x

  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  let percentile t p =
    let a = Array.of_list t.samples in
    Array.sort Float.compare a;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
    a.(Stdlib.max 0 (Stdlib.min (t.n - 1) (rank - 1)))
end

type stats_op = Add of float | Query of float

(* Latency-like samples: many ties, a wide range, no signed zeros or NaNs
   (whose order among equals no sort pins down). *)
let gen_stats_op =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> Add (float_of_int i)) (int_bound 20));
        (3, map (fun x -> Add (Float.abs x +. 0.0)) (float_bound_inclusive 1e9));
        (2, map (fun p -> Query p) (float_bound_inclusive 100.0));
      ])

let prop_stats_matches_reference =
  QCheck.Test.make ~name:"unboxed samples = list reference (bit-identical)" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_bound 300) gen_stats_op))
    (fun ops ->
      let s = Util.Stats.create () and r = Ref_stats.create () in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let agree () =
        Float.Array.length (Util.Stats.samples s) = r.Ref_stats.n
        && same (Util.Stats.mean s) (Ref_stats.mean r)
      in
      List.for_all
        (function
          | Add x ->
            Util.Stats.add s x;
            Ref_stats.add r x;
            agree ()
          | Query p ->
            agree ()
            && (r.Ref_stats.n = 0
               || List.for_all
                    (fun p -> same (Util.Stats.percentile s p) (Ref_stats.percentile r p))
                    [ p; 0.0; 50.0; 99.7; 100.0 ]))
        (ops @ [ Query 95.0 ]))

(* --- Hexdump --- *)

let test_hex_known () =
  Alcotest.(check string) "encode" "00ff10" (Util.Hexdump.of_string "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Util.Hexdump.to_string "00ff10");
  Alcotest.(check string) "decode upper" "\xab" (Util.Hexdump.to_string "AB")

let test_hex_errors () =
  Alcotest.check_raises "odd" (Invalid_argument "Hexdump.to_string: odd length") (fun () ->
      ignore (Util.Hexdump.to_string "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hexdump.to_string: bad digit") (fun () ->
      ignore (Util.Hexdump.to_string "zz"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:500 QCheck.string (fun s ->
      Util.Hexdump.to_string (Util.Hexdump.of_string s) = s)

(* --- Lru --- *)

let test_lru_basic () =
  let l = Util.Lru.create ~capacity:2 () in
  Util.Lru.put l "a" 1;
  Util.Lru.put l "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Util.Lru.find l "a");
  Alcotest.(check int) "length" 2 (Util.Lru.length l);
  Alcotest.(check int) "capacity" 2 (Util.Lru.capacity l);
  Alcotest.(check bool) "mem" true (Util.Lru.mem l "b");
  Util.Lru.put l "a" 10;
  Alcotest.(check (option int)) "replace" (Some 10) (Util.Lru.find l "a");
  Alcotest.(check int) "replace keeps length" 2 (Util.Lru.length l);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be at least 1") (fun () ->
      ignore (Util.Lru.create ~capacity:0 () : (int, int) Util.Lru.t))

let test_lru_eviction_order () =
  let evicted = ref [] in
  let l = Util.Lru.create ~capacity:3 ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) () in
  Util.Lru.put l 1 "one";
  Util.Lru.put l 2 "two";
  Util.Lru.put l 3 "three";
  (* Touch 1 so 2 becomes the coldest entry. *)
  ignore (Util.Lru.find l 1);
  Util.Lru.put l 4 "four";
  Alcotest.(check (list (pair int string))) "2 displaced" [ (2, "two") ] !evicted;
  Alcotest.(check bool) "2 gone" false (Util.Lru.mem l 2)

let test_lru_remove_and_evict () =
  let l = Util.Lru.create ~capacity:4 () in
  List.iter (fun k -> Util.Lru.put l k (k * k)) [ 1; 2; 3 ];
  Util.Lru.remove l 2;
  Alcotest.(check int) "length after remove" 2 (Util.Lru.length l);
  Alcotest.(check (option (pair int int))) "forced evict" (Some (1, 1)) (Util.Lru.evict_lru l);
  Alcotest.(check (option (pair int int))) "last" (Some (3, 9)) (Util.Lru.evict_lru l);
  Alcotest.(check (option (pair int int))) "empty" None (Util.Lru.evict_lru l)

(* --- Metrics --- *)

let key node layer name = { Util.Metrics.node; layer; name }

let test_metrics_key_order () =
  let register order =
    let m = Util.Metrics.create () in
    List.iter
      (fun (node, layer, name) -> Util.Metrics.incr (Util.Metrics.counter m ~node ~layer name))
      order;
    List.map fst (Util.Metrics.snapshot m)
  in
  let keys = [ (2, "pbft", "b"); (0, "statemgr", "a"); (-1, "load", "z"); (0, "pbft", "c") ] in
  let expected =
    [ key (-1) "load" "z"; key 0 "pbft" "c"; key 0 "statemgr" "a"; key 2 "pbft" "b" ]
  in
  Alcotest.(check bool) "ascending key order" true (register keys = expected);
  Alcotest.(check bool) "whatever the registration order" true (register (List.rev keys) = expected)

let test_metrics_incarnations () =
  let m = Util.Metrics.create () in
  let old = Util.Metrics.counter m ~node:2 ~layer:"pbft" "executed" in
  Util.Metrics.add old 5;
  let fresh = Util.Metrics.counter m ~node:2 ~layer:"pbft" "executed" in
  Util.Metrics.incr fresh;
  Alcotest.(check int) "each handle reads its own cell" 1 (Util.Metrics.count fresh);
  Alcotest.(check int) "the old cell kept its count" 5 (Util.Metrics.count old);
  let g1 = Util.Metrics.gauge m ~node:2 ~layer:"simnet" "peak" in
  let g2 = Util.Metrics.gauge m ~node:2 ~layer:"simnet" "peak" in
  Util.Metrics.observe g1 7;
  Util.Metrics.observe g1 3;
  Util.Metrics.observe g2 4;
  Alcotest.(check int) "a gauge keeps its largest value" 7 (Util.Metrics.peak g1);
  let snap = Util.Metrics.snapshot m in
  Alcotest.(check int) "counters sum over cells" 6
    (Util.Metrics.get snap ~node:2 ~layer:"pbft" "executed");
  Alcotest.(check int) "gauges take the largest cell" 7
    (Util.Metrics.get snap ~node:2 ~layer:"simnet" "peak");
  Alcotest.(check int) "one entry per key" 2 (List.length snap);
  Util.Metrics.add fresh 10;
  let later = Util.Metrics.snapshot m in
  Alcotest.(check int) "since: the counter's increase" 10
    (Util.Metrics.get (Util.Metrics.since snap later) ~node:2 ~layer:"pbft" "executed")

let test_metrics_unregistered () =
  let m = Util.Metrics.create () in
  Util.Metrics.incr (Util.Metrics.counter m ~node:0 ~layer:"pbft" "rollbacks");
  let snap = Util.Metrics.snapshot m in
  Alcotest.check_raises "an unregistered key is an error, not 0"
    (Invalid_argument "Metrics: 1/pbft/rollbacks is not registered") (fun () ->
      ignore (Util.Metrics.get snap ~node:1 ~layer:"pbft" "rollbacks"));
  Alcotest.check_raises "so is an unregistered layer total"
    (Invalid_argument "Metrics: churn/crashes is not registered") (fun () ->
      ignore (Util.Metrics.total snap ~layer:"churn" "crashes"))

let test_metrics_layers () =
  let m = Util.Metrics.create () in
  List.iter
    (fun node -> Util.Metrics.add (Util.Metrics.counter m ~node ~layer:"pbft" "views") (node + 1))
    [ 0; 1; 2 ];
  let snap =
    Util.Metrics.with_values (Util.Metrics.snapshot m)
      [ (key (-1) "churn" "availability", Util.Metrics.Real 0.5) ]
  in
  match Util.Metrics.layers snap with
  | [ ("churn", [ ("availability", Util.Metrics.Real a) ]); ("pbft", [ ("views", Util.Metrics.Count v) ]) ]
    ->
    Alcotest.(check (float 0.0)) "reading kept" 0.5 a;
    Alcotest.(check int) "summed over nodes" 6 v
  | _ -> Alcotest.fail "two layers, one name each"

let () =
  Alcotest.run "util"
    [
      ( "codec",
        [
          Alcotest.test_case "primitives" `Quick test_codec_primitives;
          Alcotest.test_case "varint boundaries" `Quick test_codec_varint_boundaries;
          Alcotest.test_case "varint negative" `Quick test_codec_varint_negative;
          Alcotest.test_case "list & option" `Quick test_codec_list_option;
          Alcotest.test_case "truncation" `Quick test_codec_truncation;
          Alcotest.test_case "trailing garbage" `Quick test_codec_trailing_garbage;
          Alcotest.test_case "varint overflow guard" `Quick test_codec_varint_overflow_guard;
          qcheck prop_codec_string_roundtrip;
          qcheck prop_codec_varint_roundtrip;
          qcheck prop_writer_matches_reference;
          qcheck prop_counting_writer;
          qcheck prop_varint_decode_never_negative;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "latency shorthands" `Quick test_stats_latency_percentiles;
          qcheck prop_stats_matches_reference;
        ] );
      ( "hexdump",
        [
          Alcotest.test_case "known vectors" `Quick test_hex_known;
          Alcotest.test_case "errors" `Quick test_hex_errors;
          qcheck prop_hex_roundtrip;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "remove & forced evict" `Quick test_lru_remove_and_evict;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot in key order" `Quick test_metrics_key_order;
          Alcotest.test_case "incarnations sum, handles read their own" `Quick
            test_metrics_incarnations;
          Alcotest.test_case "unregistered key is an error" `Quick test_metrics_unregistered;
          Alcotest.test_case "layers merge nodes" `Quick test_metrics_layers;
        ] );
    ]
