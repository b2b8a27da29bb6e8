(* Samples live unboxed in the first [n] slots of a growable float array
   (8 bytes each, not a boxed float in a list cell), sorted in place the
   first time an order statistic is asked for after an [add]. *)
type t = {
  mutable samples : Float.Array.t;
  mutable n : int;
  mutable sum : float;
  mutable sorted : bool;
}

let create () = { samples = Float.Array.create 0; n = 0; sum = 0.0; sorted = true }

let add t x =
  if t.n = Float.Array.length t.samples then begin
    let grown = Float.Array.create (Stdlib.max 16 (2 * t.n)) in
    Float.Array.blit t.samples 0 grown 0 t.n;
    t.samples <- grown
  end;
  Float.Array.set t.samples t.n x;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sorted <- false

let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

(* The sort covers the whole array, so spare capacity is trimmed first. *)
let sort_samples t =
  if not t.sorted then begin
    if Float.Array.length t.samples > t.n then t.samples <- Float.Array.sub t.samples 0 t.n;
    Float.Array.sort Float.compare t.samples;
    t.sorted <- true
  end

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  sort_samples t;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
  let idx = Stdlib.max 0 (Stdlib.min (t.n - 1) (rank - 1)) in
  Float.Array.get t.samples idx

let samples t =
  sort_samples t;
  Float.Array.sub t.samples 0 t.n
let pct_or_zero t p = if t.n = 0 then 0.0 else percentile t p
let p50 t = pct_or_zero t 50.0
let p95 t = pct_or_zero t 95.0
let p99 t = pct_or_zero t 99.0
