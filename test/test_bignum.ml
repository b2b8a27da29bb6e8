(* Tests for the arbitrary-precision arithmetic under the Rabin scheme. *)

open Bignum

let qcheck = Replay.qcheck

let pair2 a b = QCheck.pair a b

(* Random Nat of up to ~300 bits, via a seeded generator inside qcheck. *)
let nat_big =
  QCheck.map
    (fun (seed, bits) ->
      let rng = Util.Rng.create seed in
      Nat.random_bits rng (1 + (abs bits mod 300)))
    (QCheck.pair QCheck.int QCheck.int)

let check_nat msg expected actual =
  Alcotest.(check string) msg (Nat.to_hex expected) (Nat.to_hex actual)

(* --- basics --- *)

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (Nat.to_int (Nat.of_int n)))
    [ 0; 1; 2; 1000; 1 lsl 25; 1 lsl 26; (1 lsl 26) + 5; 1 lsl 52; max_int ];
  Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative") (fun () ->
      ignore (Nat.of_int (-1)))

let test_compare () =
  Alcotest.(check int) "0 = 0" 0 (Nat.compare Nat.zero Nat.zero);
  Alcotest.(check bool) "1 < 2" true (Nat.compare Nat.one Nat.two < 0);
  Alcotest.(check bool) "big > small" true
    (Nat.compare (Nat.of_int (1 lsl 40)) (Nat.of_int 5) > 0);
  Alcotest.(check bool) "equal" true (Nat.equal (Nat.of_int 12345) (Nat.of_int 12345))

let test_add_sub_known () =
  check_nat "add carries" (Nat.of_int (1 lsl 26)) (Nat.add (Nat.of_int ((1 lsl 26) - 1)) Nat.one);
  check_nat "sub borrows" (Nat.of_int ((1 lsl 26) - 1)) (Nat.sub (Nat.of_int (1 lsl 26)) Nat.one);
  Alcotest.check_raises "negative result" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (Nat.sub Nat.one Nat.two))

let test_mul_known () =
  check_nat "small" (Nat.of_int 391) (Nat.mul (Nat.of_int 17) (Nat.of_int 23));
  let big = Nat.of_hex "ffffffffffffffff" in
  (* (2^64-1)^2 = 2^128 - 2^65 + 1 *)
  check_nat "big square" (Nat.of_hex "fffffffffffffffe0000000000000001") (Nat.mul big big)

let test_divmod_known () =
  let q, r = Nat.divmod (Nat.of_int 100) (Nat.of_int 7) in
  Alcotest.(check int) "q" 14 (Nat.to_int q);
  Alcotest.(check int) "r" 2 (Nat.to_int r);
  Alcotest.check_raises "by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

let prop_add_sub_inverse =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:300 (pair2 nat_big nat_big) (fun (a, b) ->
      Nat.equal a (Nat.sub (Nat.add a b) b))

let prop_mul_commutative =
  QCheck.Test.make ~name:"a*b = b*a" ~count:300 (pair2 nat_big nat_big) (fun (a, b) ->
      Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_divmod_invariant =
  QCheck.Test.make ~name:"a = q*b + r, r < b" ~count:500 (pair2 nat_big nat_big) (fun (a, b) ->
      QCheck.assume (not (Nat.is_zero b));
      let q, r = Nat.divmod a b in
      Nat.compare r b < 0 && Nat.equal a (Nat.add (Nat.mul q b) r))

let prop_shift_is_mul_pow2 =
  QCheck.Test.make ~name:"a<<k = a*2^k" ~count:200
    (pair2 nat_big QCheck.small_nat)
    (fun (a, k) ->
      let k = k mod 100 in
      Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.mod_exp Nat.two (Nat.of_int k) (Nat.shift_left Nat.one 400))))

let prop_shift_right_inverse =
  QCheck.Test.make ~name:"(a<<k)>>k = a" ~count:300
    (pair2 nat_big QCheck.small_nat)
    (fun (a, k) ->
      let k = k mod 120 in
      Nat.equal a (Nat.shift_right (Nat.shift_left a k) k))

let test_bit_length () =
  Alcotest.(check int) "0" 0 (Nat.bit_length Nat.zero);
  Alcotest.(check int) "1" 1 (Nat.bit_length Nat.one);
  Alcotest.(check int) "255" 8 (Nat.bit_length (Nat.of_int 255));
  Alcotest.(check int) "256" 9 (Nat.bit_length (Nat.of_int 256));
  Alcotest.(check int) "2^100" 101 (Nat.bit_length (Nat.shift_left Nat.one 100))

(* --- modular arithmetic --- *)

let test_mod_exp_known () =
  (* 3^100 mod 101 = 1 by Fermat (101 prime). *)
  check_nat "fermat" Nat.one
    (Nat.mod_exp (Nat.of_int 3) (Nat.of_int 100) (Nat.of_int 101));
  check_nat "base case" Nat.one (Nat.mod_exp (Nat.of_int 7) Nat.zero (Nat.of_int 13))

let prop_mod_exp_matches_naive =
  QCheck.Test.make ~name:"mod_exp vs naive" ~count:100
    QCheck.(triple small_nat small_nat small_nat)
    (fun (b, e, m) ->
      let m = m + 2 and e = e mod 40 in
      let naive = ref 1 in
      for _ = 1 to e do
        naive := !naive * b mod m
      done;
      Nat.to_int (Nat.mod_exp (Nat.of_int b) (Nat.of_int e) (Nat.of_int m)) = !naive)

let prop_mod_inverse =
  QCheck.Test.make ~name:"a * a^-1 = 1 (mod m)" ~count:300 (pair2 nat_big nat_big)
    (fun (a, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0);
      let a = Nat.rem a m in
      match Nat.mod_inverse a m with
      | Some inv -> Nat.equal (Nat.mod_mul a inv m) (Nat.rem Nat.one m)
      | None -> Nat.is_zero a || not (Nat.equal (Nat.gcd a m) Nat.one))

let test_gcd_known () =
  Alcotest.(check int) "gcd(48,18)" 6 (Nat.to_int (Nat.gcd (Nat.of_int 48) (Nat.of_int 18)));
  Alcotest.(check int) "gcd(17,31)" 1 (Nat.to_int (Nat.gcd (Nat.of_int 17) (Nat.of_int 31)))

let test_mod_inverse_known () =
  let inv a m = Option.map Nat.to_int (Nat.mod_inverse (Nat.of_int a) (Nat.of_int m)) in
  Alcotest.(check (option int)) "3^-1 mod 11" (Some 4) (inv 3 11);
  Alcotest.(check (option int)) "7^-1 mod 40" (Some 23) (inv 7 40);
  Alcotest.(check (option int)) "6 mod 9 not invertible" None (inv 6 9)

(* --- encodings --- *)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes_be roundtrip" ~count:300 nat_big (fun a ->
      Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:300 nat_big (fun a ->
      Nat.equal a (Nat.of_hex (Nat.to_hex a)))

let test_bytes_padding () =
  let v = Nat.of_int 258 in
  Alcotest.(check string) "padded" "\x00\x00\x01\x02" (Nat.to_bytes_be ~pad:4 v)

(* --- randomness --- *)

let test_random_below_bounds () =
  let rng = Util.Rng.create 42 in
  let bound = Nat.of_hex "123456789abcdef0" in
  for _ = 1 to 500 do
    let v = Nat.random_below rng bound in
    if Nat.compare v bound >= 0 then Alcotest.fail "random_below out of range"
  done

(* --- primality --- *)

let test_known_primes () =
  let rng = Util.Rng.create 1 in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "%d prime" p) true
        (Prime.is_probable_prime rng (Nat.of_int p)))
    [ 2; 3; 5; 17; 257; 65537; 104729 ]

let test_known_composites () =
  let rng = Util.Rng.create 1 in
  (* 561, 1105, 1729 are Carmichael numbers: Fermat liars, caught by MR. *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "%d composite" c) false
        (Prime.is_probable_prime rng (Nat.of_int c)))
    [ 0; 1; 4; 100; 561; 1105; 1729; 65536 ]

let test_generated_prime_properties () =
  let rng = Util.Rng.create 5 in
  let p = Prime.generate rng ~bits:96 in
  Alcotest.(check int) "bit length" 96 (Nat.bit_length p);
  Alcotest.(check bool) "probable prime" true (Prime.is_probable_prime rng p)

let test_blum_prime () =
  let rng = Util.Rng.create 6 in
  let p = Prime.generate_blum rng ~bits:96 in
  Alcotest.(check int) "3 mod 4" 3 (Nat.to_int (Nat.rem p (Nat.of_int 4)));
  Alcotest.(check bool) "prime" true (Prime.is_probable_prime rng p)

let () =
  Alcotest.run "bignum"
    [
      ( "basics",
        [
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "add/sub known" `Quick test_add_sub_known;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "divmod known" `Quick test_divmod_known;
          Alcotest.test_case "bit_length" `Quick test_bit_length;
          qcheck prop_add_sub_inverse;
          qcheck prop_mul_commutative;
          qcheck prop_divmod_invariant;
          qcheck prop_shift_is_mul_pow2;
          qcheck prop_shift_right_inverse;
        ] );
      ( "modular",
        [
          Alcotest.test_case "mod_exp known" `Quick test_mod_exp_known;
          Alcotest.test_case "gcd known" `Quick test_gcd_known;
          Alcotest.test_case "mod_inverse known" `Quick test_mod_inverse_known;
          qcheck prop_mod_exp_matches_naive;
          qcheck prop_mod_inverse;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "bytes padding" `Quick test_bytes_padding;
          qcheck prop_bytes_roundtrip;
          qcheck prop_hex_roundtrip;
        ] );
      ( "random",
        [ Alcotest.test_case "random_below bounds" `Quick test_random_below_bounds ] );
      ( "primality",
        [
          Alcotest.test_case "known primes" `Quick test_known_primes;
          Alcotest.test_case "known composites (incl. Carmichael)" `Quick test_known_composites;
          Alcotest.test_case "generated prime" `Quick test_generated_prime_properties;
          Alcotest.test_case "Blum prime" `Quick test_blum_prime;
        ] );
    ]
