(* Little-endian limbs, base 2^26, normalized: highest limb nonzero. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero a = Array.length a = 0

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n land limb_mask) :: limbs (n lsr limb_bits) in
  Array.of_list (limbs n)

let to_int a =
  let r = Array.fold_right (fun limb acc ->
      if acc > max_int lsr limb_bits then failwith "Nat.to_int: overflow";
      (acc lsl limb_bits) lor limb) a 0
  in
  r

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec msb v acc = if v = 0 then acc else msb (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + msb top 0
  end

let get a i = if i < Array.length a then a.(i) else 0

let add a b =
  let n = max (Array.length a) (Array.length b) in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = get a i + get b i + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let n = Array.length a in
  let r = Array.make n 0 in
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let d = a.(i) - get b i - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let acc = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- acc land limb_mask;
        carry := acc lsr limb_bits
      done;
      (* Propagate the final carry; it can span several limbs. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let acc = r.(!k) + !carry in
        r.(!k) <- acc land limb_mask;
        carry := acc lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left a k =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right a k =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
        r.(i) <- if bits = 0 then a.(i + limbs) else lo lor hi
      done;
      normalize r
    end
  end

(* Short division by a single limb. *)
let divmod_limb a d =
  let n = Array.length a in
  let q = Array.make n 0 in
  let rem = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (normalize q, !rem)

(* Knuth Algorithm D. *)
let divmod_long u v =
  let n = Array.length v in
  let m = Array.length u - n in
  (* Normalize: shift so that v's top limb has its high bit set. *)
  let rec msb x acc = if x = 0 then acc else msb (x lsr 1) (acc + 1) in
  let shift = limb_bits - msb v.(n - 1) 0 in
  let vn = shift_left v shift in
  let un_arr = shift_left u shift in
  (* Working copy of the dividend with an explicit extra high limb. *)
  let un = Array.make (m + n + 1) 0 in
  Array.blit un_arr 0 un 0 (Array.length un_arr);
  let q = Array.make (m + 1) 0 in
  let vtop = vn.(n - 1) in
  let vsecond = if n >= 2 then vn.(n - 2) else 0 in
  for j = m downto 0 do
    let numer = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
    let qhat = ref (numer / vtop) in
    let rhat = ref (numer mod vtop) in
    (* Correction loop: while the two-limb estimate overshoots, step qhat
       down. Once rhat reaches the base the guard can never hold again. *)
    let overshoots () =
      !rhat < base
      && (!qhat >= base || !qhat * vsecond > ((!rhat lsl limb_bits) lor un.(j + n - 2)))
    in
    while overshoots () do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* Multiply and subtract qhat * vn from un[j .. j+n]. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = un.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin
        un.(i + j) <- d + base;
        borrow := 1
      end
      else begin
        un.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = un.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add vn back. *)
      un.(j + n) <- d + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let s = un.(i + j) + vn.(i) + !carry2 in
        un.(i + j) <- s land limb_mask;
        carry2 := s lsr limb_bits
      done;
      un.(j + n) <- (un.(j + n) + !carry2) land limb_mask
    end
    else un.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = normalize (Array.sub un 0 n) in
  (normalize q, shift_right r shift)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_limb a b.(0) in
    (q, of_int r)
  end
  else divmod_long a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let mod_add a b m = rem (add a b) m

let mod_sub a b m =
  let a = rem a m and b = rem b m in
  if compare a b >= 0 then sub a b else sub (add a m) b

let mod_mul a b m = rem (mul a b) m

let mod_exp b e m =
  if equal m one then zero
  else begin
    let result = ref one in
    let b = ref (rem b m) in
    let bits = bit_length e in
    for i = 0 to bits - 1 do
      let limb = e.(i / limb_bits) in
      if (limb lsr (i mod limb_bits)) land 1 = 1 then result := mod_mul !result !b m;
      if i < bits - 1 then b := mod_mul !b !b m
    done;
    !result
  end

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let mod_inverse a m =
  (* Extended Euclid tracking only the coefficient of [a]; signs are
     carried separately since values are naturals. The invariant is
     r_i ≡ (±s_i) · a (mod m). *)
  let a = rem a m in
  if is_zero a then None
  else begin
    let rec go r0 r1 s0 neg0 s1 neg1 =
      if is_zero r1 then
        if equal r0 one then begin
          let v = rem s0 m in
          Some (if neg0 && not (is_zero v) then sub m v else v)
        end
        else None
      else begin
        let q, r2 = divmod r0 r1 in
        let qs1 = mul q s1 in
        let s2, neg2 =
          if neg0 = neg1 then
            if compare s0 qs1 >= 0 then (sub s0 qs1, neg0) else (sub qs1 s0, not neg0)
          else (add s0 qs1, neg0)
        in
        go r1 r2 s1 neg1 s2 neg2
      end
    in
    go a m one false zero false
  end

let of_bytes_be s =
  let r = ref zero in
  String.iter (fun c -> r := add (shift_left !r 8) (of_int (Char.code c))) s;
  !r

let to_bytes_be ?(pad = 0) a =
  let nbytes = max 1 ((bit_length a + 7) / 8) in
  let nbytes = max nbytes pad in
  let b = Bytes.make nbytes '\000' in
  let v = ref a in
  let i = ref (nbytes - 1) in
  while not (is_zero !v) do
    Bytes.set b !i (Char.chr (!v.(0) land 0xff));
    v := shift_right !v 8;
    decr i
  done;
  Bytes.to_string b

let of_hex s = of_bytes_be (Util.Hexdump.to_string (if String.length s mod 2 = 1 then "0" ^ s else s))
let to_hex a = Util.Hexdump.of_string (to_bytes_be a)

let random_bits rng nbits =
  if nbits <= 0 then zero
  else begin
    let nlimbs = (nbits + limb_bits - 1) / limb_bits in
    let r = Array.init nlimbs (fun _ -> Util.Rng.int rng base) in
    let top_bits = nbits - ((nlimbs - 1) * limb_bits) in
    r.(nlimbs - 1) <- r.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    normalize r
  end

let random_below rng bound =
  if is_zero bound then invalid_arg "Nat.random_below: zero bound";
  let nbits = bit_length bound in
  let rec try_draw () =
    let v = random_bits rng nbits in
    if compare v bound < 0 then v else try_draw ()
  in
  try_draw ()
