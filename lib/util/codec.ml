module W = struct
  (* A writer that [counts] writes nothing and only advances [len]:
     running an encoder on one gives its exact length. *)
  type t = { mutable buf : Bytes.t; mutable len : int; counts : bool }

  let create ?(capacity = 256) () = { buf = Bytes.create (max capacity 16); len = 0; counts = false }
  let length t = t.len

  (* Room for [n] more bytes: the offset to write them at, or -1 on a
     counting writer. A full buffer doubles until they fit. *)
  let reserve t n =
    let at = t.len in
    t.len <- at + n;
    if (not t.counts) && t.len > Bytes.length t.buf then begin
      let cap = ref (Int.max 16 (2 * Bytes.length t.buf)) in
      while t.len > !cap do cap := 2 * !cap done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf 0 bigger 0 at;
      t.buf <- bigger
    end;
    if t.counts then -1 else at

  let[@inline] set t at v = Bytes.unsafe_set t.buf at (Char.unsafe_chr (v land 0xff))

  let u8 t v =
    let at = reserve t 1 in
    if at >= 0 then set t at v

  (* Little-endian, [n] bytes of [v]. *)
  let fixed t n v =
    let at = reserve t n in
    if at >= 0 then for i = 0 to n - 1 do set t (at + i) (v lsr (8 * i)) done

  let u16 t v = fixed t 2 v
  let u32 t v = fixed t 4 v

  let u64 t v =
    let at = reserve t 8 in
    if at >= 0 then Bytes.set_int64_le t.buf at v

  let int_as_u64 t v = u64 t (Int64.of_int v)

  (* Not [u64 t (Int64.bits_of_float v)]: that boxes the int64 on its way in. *)
  let f64 t v =
    let at = reserve t 8 in
    if at >= 0 then Bytes.set_int64_le t.buf at (Int64.bits_of_float v)

  let varint_size v =
    let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
    go 1 v

  let varint t v =
    if v < 0 then invalid_arg "Codec.W.varint: negative";
    let at = reserve t (varint_size v) in
    if at >= 0 then begin
      let v = ref v and at = ref at in
      while !v >= 0x80 do
        set t !at (0x80 lor (!v land 0x7f));
        incr at;
        v := !v lsr 7
      done;
      set t !at !v
    end

  let bool t v = u8 t (if v then 1 else 0)

  let string t s =
    let n = String.length s in
    let at = reserve t n in
    if at >= 0 then Bytes.blit_string s 0 t.buf at n

  let lstring t s =
    varint t (String.length s);
    string t s

  (* Not [List.iter (enc t) l]: that allocates a closure per list. *)
  let rec each t enc = function [] -> () | x :: l -> enc t x; each t enc l

  let list t enc l =
    varint t (List.length l);
    each t enc l

  let option t enc = function
    | None -> bool t false
    | Some v ->
      bool t true;
      enc t v

  let peek t = Bytes.unsafe_to_string t.buf

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

  let pos t = t.pos

  let list t dec =
    let n = varint t in
    List.init n (fun _ -> dec t)

  let option t dec = if bool t then Some (dec t) else None
  let expect_end t = if remaining t <> 0 then raise Truncated
end

let size enc v =
  let w = { W.buf = Bytes.empty; len = 0; counts = true } in
  enc w v;
  w.len

(* A buffer the encoder filled exactly becomes the string itself: [w]
   never escapes, so nothing can write to it afterwards. *)
let encode ?size:n enc v =
  let n = match n with Some n -> n | None -> size enc v in
  let w = { W.buf = Bytes.create n; len = 0; counts = false } in
  enc w v;
  if w.len = n then Bytes.unsafe_to_string w.buf else Bytes.sub_string w.buf 0 w.len

let decode dec s =
  let r = R.of_string s in
  let v = dec r in
  R.expect_end r;
  v
