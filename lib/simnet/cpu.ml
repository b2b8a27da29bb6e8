type t = {
  engine : Engine.t;
  free_at : float array; (* one slot per virtual core *)
  mutable busy_accum : float;
  mutable queued : int;
  mutable peak_queued : int;
}

let create ?(cores = 1) engine =
  if cores < 1 then invalid_arg "Cpu.create: cores must be at least 1";
  { engine; free_at = Array.make cores 0.0; busy_accum = 0.0; queued = 0; peak_queued = 0 }

(* Earliest-free core, lowest index on ties — a strict order so dispatch
   is deterministic. *)
let pick t =
  let best = ref 0 in
  for i = 1 to Array.length t.free_at - 1 do
    if t.free_at.(i) < t.free_at.(!best) then best := i
  done;
  !best

let dispatch t cost =
  let cost = Float.max 0.0 cost in
  let core = pick t in
  let start = Float.max (Engine.now t.engine) t.free_at.(core) in
  let finish = start +. cost in
  t.free_at.(core) <- finish;
  t.busy_accum <- t.busy_accum +. cost;
  finish

let note_queued t =
  t.queued <- t.queued + 1;
  if t.queued > t.peak_queued then t.peak_queued <- t.queued

let execute t ~cost f =
  let finish = dispatch t cost in
  note_queued t;
  Engine.schedule_at t.engine ~time:finish (fun () ->
      t.queued <- t.queued - 1;
      f ())

let execute_split t ~costs f =
  match costs with
  | [] -> execute t ~cost:0.0 f
  | costs ->
      let finish = List.fold_left (fun acc c -> Float.max acc (dispatch t c)) 0.0 costs in
      note_queued t;
      Engine.schedule_at t.engine ~time:finish (fun () ->
          t.queued <- t.queued - 1;
          f ())

let queue_length t = t.queued
let peak_queue_length t = t.peak_queued
let total_busy t = t.busy_accum

let utilization t ~since =
  let span = Engine.now t.engine -. since in
  if span <= 0.0 then 0.0
  else Float.min 1.0 (t.busy_accum /. (span *. float_of_int (Array.length t.free_at)))
