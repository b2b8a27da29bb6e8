open Bignum

type public = { n : Nat.t; e : Nat.t; parties : int; threshold : int; delta : int }
type share = { idx : int; value_s : Nat.t }
type partial = { party : int; value : Nat.t }

let rec factorial k = if k <= 1 then 1 else k * factorial (k - 1)

let generate_safe_prime rng ~bits =
  let rec go () =
    let p' = Prime.generate rng ~bits:(bits - 1) in
    let p = Nat.add (Nat.shift_left p' 1) Nat.one in
    if Prime.is_probable_prime ~rounds:15 rng p then (p, p') else go ()
  in
  go ()

let deal rng ~bits ~threshold ~parties =
  if threshold < 1 || parties < threshold then invalid_arg "Threshold.deal";
  if parties > 20 then invalid_arg "Threshold.deal: too many parties (Δ overflow)";
  let half = bits / 2 in
  let p, p' = generate_safe_prime rng ~bits:half in
  let rec distinct () =
    let q, q' = generate_safe_prime rng ~bits:half in
    if Nat.equal p q then distinct () else (q, q')
  in
  let q, q' = distinct () in
  let n = Nat.mul p q in
  let m = Nat.mul p' q' in
  let e = Nat.of_int 65537 in
  let d = match Nat.mod_inverse e m with Some d -> d | None -> assert false in
  let shamir_shares = Shamir.split rng ~field:m ~threshold ~shares:parties d in
  (* Note: m is not prime, but Shamir.split only evaluates the polynomial
     (no inversion), so sharing over Z_m is sound; reconstruction happens
     in the exponent with integer Lagrange coefficients. *)
  let pk = { n; e; parties; threshold; delta = factorial parties } in
  (pk, List.map (fun (s : Shamir.share) -> { idx = s.index; value_s = s.value }) shamir_shares)

(* Hash into Q_n: square the hash value so the base lands in the subgroup
   of quadratic residues, whose exponent divides m. *)
let hash_to_qn n msg =
  let h1 = Sha256.digest ("thresh-1|" ^ msg) and h2 = Sha256.digest ("thresh-2|" ^ msg) in
  let h = Nat.rem (Nat.of_bytes_be (h1 ^ h2)) n in
  Nat.mod_mul h h n

let partial_sign pk sh msg =
  let x = hash_to_qn pk.n msg in
  let exponent = Nat.mul (Nat.of_int (2 * pk.delta)) sh.value_s in
  { party = sh.idx; value = Nat.mod_exp x exponent pk.n }

(* Integer Lagrange coefficient λ_i = Δ · Π_{j∈S, j≠i} j / (j − i); the
   factorial factor makes it an integer (standard lemma). *)
let integer_lagrange delta indices i =
  let num = ref delta and den = ref 1 in
  List.iter
    (fun j ->
      if j <> i then begin
        num := !num * j;
        den := !den * (j - i)
      end)
    indices;
  assert (!num mod !den = 0);
  !num / !den

(* Extended gcd on native ints: returns (g, a, b) with a·x + b·y = g. *)
let rec ext_gcd x y = if y = 0 then (x, 1, 0) else begin
    let g, a, b = ext_gcd y (x mod y) in
    (g, b, a - (x / y * b))
  end

let pow_signed base exp n =
  if exp >= 0 then Nat.mod_exp base (Nat.of_int exp) n
  else begin
    match Nat.mod_inverse base n with
    | Some inv -> Nat.mod_exp inv (Nat.of_int (-exp)) n
    | None -> failwith "Threshold: base not invertible (hash hit a factor)"
  end

let verify pk msg signature =
  let x = hash_to_qn pk.n msg in
  Nat.equal (Nat.mod_exp signature pk.e pk.n) x

let combine pk msg partials =
  (* Deduplicate by party, keep the first [threshold]. *)
  let seen = Hashtbl.create 8 in
  let distinct =
    List.filter
      (fun p ->
        if Hashtbl.mem seen p.party then false
        else begin
          Hashtbl.add seen p.party ();
          true
        end)
      partials
  in
  if List.length distinct < pk.threshold then None
  else begin
    let chosen = List.filteri (fun i _ -> i < pk.threshold) distinct in
    let indices = List.map (fun p -> p.party) chosen in
    let x = hash_to_qn pk.n msg in
    (* w = Π σ_i^{2λ_i} = x^{4Δ²d}. *)
    let w =
      List.fold_left
        (fun acc p ->
          let lam = integer_lagrange pk.delta indices p.party in
          Nat.mod_mul acc (pow_signed p.value (2 * lam) pk.n) pk.n)
        Nat.one chosen
    in
    (* e' = 4Δ²; Bezout a·e' + b·e = 1, then s = w^a · x^b satisfies s^e = x. *)
    let e' = 4 * pk.delta * pk.delta in
    let e_int = Nat.to_int pk.e in
    let g, a, b = ext_gcd e' e_int in
    if g <> 1 then None
    else begin
      let s = Nat.mod_mul (pow_signed w a pk.n) (pow_signed x b pk.n) pk.n in
      if verify pk msg s then Some s else None
    end
  end

let partial_to_string p =
  let value = Nat.to_bytes_be p.value in
  Util.Codec.encode (fun w () -> Util.Codec.W.varint w p.party; Util.Codec.W.lstring w value) ()

let partial_of_string s =
  match
    Util.Codec.decode
      (fun r ->
        let party = Util.Codec.R.varint r in
        let value = Nat.of_bytes_be (Util.Codec.R.lstring r) in
        { party; value })
      s
  with
  | p -> Some p
  | exception Util.Codec.R.Truncated -> None

let signature_to_string s = Nat.to_bytes_be s

let signature_of_string s = if String.equal s "" then None else Some (Nat.of_bytes_be s)
