(* Samples live unboxed in the first [n] slots of a growable float array
   (8 bytes each, not a boxed float in a list cell), sorted in place the
   first time an order statistic is asked for after an [add]. *)
type t = {
  mutable samples : Float.Array.t;
  mutable n : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable mn : float;
  mutable mx : float;
  mutable sorted : bool;
}

let create () =
  {
    samples = Float.Array.create 0;
    n = 0;
    sum = 0.0;
    sumsq = 0.0;
    mn = infinity;
    mx = neg_infinity;
    sorted = true;
  }

let add t x =
  if t.n = Float.Array.length t.samples then begin
    let grown = Float.Array.create (Stdlib.max 16 (2 * t.n)) in
    Float.Array.blit t.samples 0 grown 0 t.n;
    t.samples <- grown
  end;
  Float.Array.set t.samples t.n x;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x;
  t.sorted <- false

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let stdev t =
  if t.n < 2 then 0.0
  else begin
    let n = float_of_int t.n in
    let var = (t.sumsq -. (t.sum *. t.sum /. n)) /. (n -. 1.0) in
    if var < 0.0 then 0.0 else sqrt var
  end

let min t = t.mn
let max t = t.mx

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

let median t = percentile t 50.0

let samples t =
  sort_samples t;
  Float.Array.sub t.samples 0 t.n
let pct_or_zero t p = if t.n = 0 then 0.0 else percentile t p
let p50 t = pct_or_zero t 50.0
let p95 t = pct_or_zero t 95.0
let p99 t = pct_or_zero t 99.0

let summary t =
  if t.n = 0 then "n=0"
  else
    Printf.sprintf "n=%d mean=%.3f stdev=%.3f min=%.3f p50=%.3f max=%.3f" t.n (mean t) (stdev t)
      t.mn (median t) t.mx
