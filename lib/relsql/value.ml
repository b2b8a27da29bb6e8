type t =
  | Null
  | Int of int
  | Real of float
  | Text of string

let type_rank = function Null -> 0 | Int _ | Real _ -> 1 | Text _ -> 2

let compare_sql a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Real x, Real y -> Float.compare x y
  | Int x, Real y -> Float.compare (float_of_int x) y
  | Real x, Int y -> Float.compare x (float_of_int y)
  | Text x, Text y -> String.compare x y
  | (Null | Int _ | Real _ | Text _), _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare_sql a b = 0
let is_null = function Null -> true | Int _ | Real _ | Text _ -> false

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  (* %.6g is the service's pinned REAL rendering: deterministic for a
     given IEEE double, and the bit pattern is replicated state. *)
  | Real f -> (Printf.sprintf "%.6g" f [@detlint.allow float_format])
  | Text s -> s

let as_number = function
  | Int i -> Some (float_of_int i)
  | Real f -> Some f
  | Text s -> float_of_string_opt s
  | Null -> None

let truthy = function
  | Int i -> i <> 0
  | Real f -> f <> 0.0
  | Null | Text _ -> false

let encode w = function
  | Null -> Util.Codec.W.u8 w 0
  | Int i ->
    Util.Codec.W.u8 w 1;
    Util.Codec.W.int_as_u64 w i
  | Real f ->
    Util.Codec.W.u8 w 2;
    Util.Codec.W.f64 w f
  | Text s ->
    Util.Codec.W.u8 w 3;
    Util.Codec.W.lstring w s

let decode r =
  match Util.Codec.R.u8 r with
  | 0 -> Null
  | 1 -> Int (Util.Codec.R.int_of_u64 r)
  | 2 -> Real (Util.Codec.R.f64 r)
  | 3 -> Text (Util.Codec.R.lstring r)
  | _ -> raise Util.Codec.R.Truncated

(* Keys are compared bytewise; within Int the offset keeps ordering across
   the sign boundary. *)
let key_encode = function
  | Null -> "\x00"
  | Int i ->
    let buf = Bytes.create 9 in
    Bytes.set buf 0 '\x01';
    Bytes.set_int64_be buf 1 (Int64.add (Int64.of_int i) Int64.min_int);
    Bytes.to_string buf
  | Real f ->
    let bits = Int64.bits_of_float f in
    let adj = if Int64.compare bits 0L < 0 then Int64.lognot bits else Int64.logxor bits Int64.min_int in
    let buf = Bytes.create 9 in
    Bytes.set buf 0 '\x02';
    Bytes.set_int64_be buf 1 adj;
    Bytes.to_string buf
  | Text s -> "\x03" ^ s
