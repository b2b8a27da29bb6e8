(* The queue is a binary min-heap of timers ordered by (time, seq), seq
   being the insertion number: a strict total order, so the firing order
   does not depend on the heap's layout. Each queued timer knows its
   slot, so [cancel] takes it out at once and the heap holds only live
   events. *)
type timer = {
  mutable time : float;
  mutable seq : int;
  fire : unit -> unit;
  mutable slot : int;  (** index in [engine.heap]; -1 once out of the queue *)
  mutable cancelled : bool;
  engine : t;
}

and t = {
  mutable clock : float;
  mutable heap : timer array;
  mutable len : int;
  mutable next_seq : int;
  root_rng : Util.Rng.t;
  mutable events : int;
  metrics : Util.Metrics.t;
  vacant : timer;
      (** what the heap's slots past [len] hold: a timer never queued, so
          a slot [remove] vacates, or growing the array makes, keeps no
          fired or cancelled timer (and what its closure names)
          reachable *)
}

let create ~seed =
  let root_rng = Util.Rng.create seed and metrics = Util.Metrics.create () in
  let rec t =
    { clock = 0.0; heap = [||]; len = 0; next_seq = 0; root_rng; events = 0; metrics; vacant }
  and vacant =
    { time = infinity; seq = max_int; fire = ignore; slot = -1; cancelled = true; engine = t }
  in
  t

let now t = t.clock
let rng t = t.root_rng
let events t = t.events
let metrics t = t.metrics
let pending t = t.len

let less a b = a.time < b.time || (Float.equal a.time b.time && a.seq < b.seq)

let place t i e =
  t.heap.(i) <- e;
  e.slot <- i

(* Put [e] in the hole at [i], moving it towards the root. *)
let rec sift_up t i e =
  let p = (i - 1) / 2 in
  if i > 0 && less e t.heap.(p) then begin
    place t i t.heap.(p);
    sift_up t p e
  end
  else place t i e

(* Put [e] in the hole at [i], moving it towards the leaves. *)
let rec sift_down t i e =
  let l = (2 * i) + 1 in
  let c = if l + 1 < t.len && less t.heap.(l + 1) t.heap.(l) then l + 1 else l in
  if c < t.len && less t.heap.(c) e then begin
    place t i t.heap.(c);
    sift_down t c e
  end
  else place t i e

let insert t e =
  if t.len = Array.length t.heap then begin
    let bigger = Array.make (Int.max 16 (2 * t.len)) t.vacant in
    Array.blit t.heap 0 bigger 0 t.len;
    t.heap <- bigger
  end;
  e.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) e

(* Take [e] out through its slot and refill the hole with the last entry,
   which may belong above or below it. *)
let remove t e =
  let i = e.slot in
  e.slot <- -1;
  t.len <- t.len - 1;
  let last = t.heap.(t.len) in
  t.heap.(t.len) <- t.vacant;
  if i < t.len then
    if i > 0 && less last t.heap.((i - 1) / 2) then sift_up t i last else sift_down t i last

let enqueue t ~time fire =
  let e = { time; seq = 0; fire; slot = -1; cancelled = false; engine = t } in
  insert t e;
  e

let schedule_at t ~time f =
  let time = if time < t.clock then t.clock else time in
  ignore (enqueue t ~time f)

let schedule t ~delay f = schedule_at t ~time:(t.clock +. Float.max 0.0 delay) f
let timer t ~delay f = enqueue t ~time:(t.clock +. Float.max 0.0 delay) f

let cancel e =
  e.cancelled <- true;
  if e.slot >= 0 then remove e.engine e

let periodic t ~interval f =
  let rec e =
    {
      time = t.clock +. interval;
      seq = 0;
      fire =
        (fun () ->
          f ();
          if not e.cancelled then begin
            e.time <- t.clock +. interval;
            insert t e
          end);
      slot = -1;
      cancelled = false;
      engine = t;
    }
  in
  insert t e;
  e

let run ?(until = infinity) ?(max_events = max_int) t =
  let budget = ref max_events in
  while !budget > 0 && t.len > 0 do
    let e = t.heap.(0) in
    if e.time > until then begin
      (* Leave future events queued; advance the clock to the horizon. *)
      t.clock <- Float.max t.clock until;
      budget := 0
    end
    else begin
      remove t e;
      t.clock <- Float.max t.clock e.time;
      t.events <- t.events + 1;
      e.fire ();
      decr budget
    end
  done
