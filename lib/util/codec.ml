module W = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(capacity = 256) () = { buf = Bytes.create (max capacity 16); len = 0 }
  let length t = t.len

  let ensure t extra =
    let need = t.len + extra in
    let cap = Bytes.length t.buf in
    if need > cap then begin
      let cap' = ref (cap * 2) in
      while need > !cap' do
        cap' := !cap' * 2
      done;
      let bigger = Bytes.create !cap' in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end

  let u8 t v =
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xff));
    t.len <- t.len + 1

  let u16 t v =
    ensure t 2;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set t.buf (t.len + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
    t.len <- t.len + 2

  let u32 t v =
    ensure t 4;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set t.buf (t.len + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set t.buf (t.len + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set t.buf (t.len + 3) (Char.unsafe_chr ((v lsr 24) land 0xff));
    t.len <- t.len + 4

  let u64 t v =
    ensure t 8;
    Bytes.set_int64_le t.buf t.len v;
    t.len <- t.len + 8

  let int_as_u64 t v = u64 t (Int64.of_int v)
  let f64 t v = u64 t (Int64.bits_of_float v)

  (* A varint is at most 9 bytes (63-bit non-negative int, 7 bits per
     byte); reserve once and loop — no recursion, one bounds check. *)
  let varint t v =
    if v < 0 then invalid_arg "Codec.W.varint: negative";
    ensure t 9;
    let v = ref v in
    while !v >= 0x80 do
      Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
      t.len <- t.len + 1;
      v := !v lsr 7
    done;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr !v);
    t.len <- t.len + 1

  let bool t v = u8 t (if v then 1 else 0)

  let string t s =
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let lstring t s =
    varint t (String.length s);
    string t s

  let list t enc l =
    varint t (List.length l);
    List.iter (enc t) l

  let option t enc = function
    | None -> bool t false
    | Some v ->
      bool t true;
      enc t v

  let contents t = Bytes.sub_string t.buf 0 t.len

  let contents_padded t n =
    if t.len > n then invalid_arg "Codec.W.contents_padded: longer than the target";
    let out = Bytes.make n '\000' in
    Bytes.blit t.buf 0 out 0 t.len;
    Bytes.unsafe_to_string out
end

module R = struct
  type t = { src : string; mutable pos : int }

  exception Truncated

  let of_string src = { src; pos = 0 }
  let remaining t = String.length t.src - t.pos

  let u8 t =
    if t.pos >= String.length t.src then raise Truncated;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let a = u8 t in
    let b = u8 t in
    a lor (b lsl 8)

  let u32 t =
    let a = u16 t in
    let b = u16 t in
    a lor (b lsl 16)

  let u64 t =
    if remaining t < 8 then raise Truncated;
    let v = String.get_int64_le t.src t.pos in
    t.pos <- t.pos + 8;
    v

  (* Not [Int64.to_int (u64 t)]: that boxes the int64 on its way out. *)
  let int_of_u64 t =
    if remaining t < 8 then raise Truncated;
    let v = Int64.to_int (String.get_int64_le t.src t.pos) in
    t.pos <- t.pos + 8;
    v
  let f64 t = Int64.float_of_bits (u64 t)

  (* Defensive decode (Byzantine path): a well-formed varint is at most 9
     bytes, and the 9th byte may carry only the top 7 bits of a 63-bit
     int, i.e. must be <= max_int lsr 56 = 0x3f. Anything longer or
     larger would wrap into the sign bit, so a malformed wire can neither
     loop nor produce a negative length. *)
  let rec varint_from t shift acc =
    if shift > 56 then raise Truncated;
    let b = u8 t in
    if shift = 56 && b > 0x3f then raise Truncated;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_from t (shift + 7) acc

  let varint t = varint_from t 0 0

  let bool t = u8 t <> 0

  let string t n =
    if n < 0 || remaining t < n then raise Truncated;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let lstring t = string t (varint t)

  let skip t n =
    if n < 0 || remaining t < n then raise Truncated;
    t.pos <- t.pos + n

  let list t dec =
    let n = varint t in
    List.init n (fun _ -> dec t)

  let option t dec = if bool t then Some (dec t) else None
  let expect_end t = if remaining t <> 0 then raise Truncated
end

let encode enc v =
  let w = W.create () in
  enc w v;
  W.contents w

let decode dec s =
  let r = R.of_string s in
  let v = dec r in
  R.expect_end r;
  v
