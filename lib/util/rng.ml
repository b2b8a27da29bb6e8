(* The SplitMix64 counter lives unboxed in an 8-byte buffer, and the
   mixing functions are inlined into every draw, so drawing allocates
   nothing: an [int64] field would box the counter on every step. *)
type t = bytes

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 output mixing (Steele, Lea, Flood 2014). *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next_int64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let split t = of_state (mix64 (next_int64 t))

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value is nonnegative on 63-bit native ints. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (r /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p = if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -. mean *. log u

let gaussian t ~mean ~stdev =
  let u1 = 1.0 -. float t 1.0 and u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stdev *. z)

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.chr (int t 256))
  done;
  b
