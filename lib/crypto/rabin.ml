open Bignum

type keypair = {
  p : Nat.t;
  q : Nat.t;
  n : Nat.t;
  (* CRT precomputation: c_p = q·(q⁻¹ mod p), c_q = p·(p⁻¹ mod q). *)
  c_p : Nat.t;
  c_q : Nat.t;
  exp_p : Nat.t; (* (p+1)/4 *)
  exp_q : Nat.t; (* (q+1)/4 *)
}

type public_key = { pk_n : Nat.t }
type signature = { counter : int; root : Nat.t }

let generate rng ~bits =
  let half = bits / 2 in
  let p = Prime.generate_blum rng ~bits:half in
  let rec distinct_q () =
    let q = Prime.generate_blum rng ~bits:half in
    if Nat.equal p q then distinct_q () else q
  in
  let q = distinct_q () in
  let n = Nat.mul p q in
  let inv_q_mod_p =
    match Nat.mod_inverse q p with Some v -> v | None -> assert false
  in
  let inv_p_mod_q =
    match Nat.mod_inverse p q with Some v -> v | None -> assert false
  in
  let four = Nat.of_int 4 in
  {
    p;
    q;
    n;
    c_p = Nat.mul q inv_q_mod_p;
    c_q = Nat.mul p inv_p_mod_q;
    exp_p = Nat.div (Nat.add p Nat.one) four;
    exp_q = Nat.div (Nat.add q Nat.one) four;
  }

let public kp = { pk_n = kp.n }

(* Map (message, counter) to an element of Z_n by hashing with domain
   separation and reducing. *)
let hash_to_nat n msg counter =
  let h1 = Sha256.digest (Printf.sprintf "rabin-1|%d|%s" counter msg) in
  let h2 = Sha256.digest (Printf.sprintf "rabin-2|%d|%s" counter msg) in
  Nat.rem (Nat.of_bytes_be (h1 ^ h2)) n

(* Euler criterion: m is a QR mod prime p iff m^((p-1)/2) ≡ 1. *)
let is_qr m p =
  if Nat.is_zero (Nat.rem m p) then false
  else Nat.equal (Nat.mod_exp m (Nat.shift_right (Nat.sub p Nat.one) 1) p) Nat.one

let sign kp msg =
  let rec attempt counter =
    if counter > 1000 then failwith "Rabin.sign: no quadratic residue found";
    let m = hash_to_nat kp.n msg counter in
    if is_qr m kp.p && is_qr m kp.q then begin
      let rp = Nat.mod_exp m kp.exp_p kp.p in
      let rq = Nat.mod_exp m kp.exp_q kp.q in
      let root = Nat.rem (Nat.add (Nat.mod_mul rp kp.c_p kp.n) (Nat.mod_mul rq kp.c_q kp.n)) kp.n in
      { counter; root }
    end
    else attempt (counter + 1)
  in
  attempt 0

let verify pk msg s =
  Nat.compare s.root pk.pk_n < 0
  &&
  let m = hash_to_nat pk.pk_n msg s.counter in
  Nat.equal (Nat.mod_mul s.root s.root pk.pk_n) m

let signature_to_string s =
  let root = Nat.to_bytes_be s.root in
  Util.Codec.encode (fun w () -> Util.Codec.W.varint w s.counter; Util.Codec.W.lstring w root) ()

let signature_of_string str =
  match
    Util.Codec.decode
      (fun r ->
        let counter = Util.Codec.R.varint r in
        let root = Nat.of_bytes_be (Util.Codec.R.lstring r) in
        { counter; root })
      str
  with
  | s -> Some s
  | exception Util.Codec.R.Truncated -> None

let public_to_string pk = Util.Codec.encode Util.Codec.W.lstring (Nat.to_bytes_be pk.pk_n)

let public_of_string str =
  match Util.Codec.decode (fun r -> Nat.of_bytes_be (Util.Codec.R.lstring r)) str with
  | n -> Some { pk_n = n }
  | exception Util.Codec.R.Truncated -> None
