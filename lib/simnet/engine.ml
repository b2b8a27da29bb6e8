type timer = { mutable cancelled : bool }

type event = { fire : unit -> unit; guard : timer option }

type t = {
  mutable clock : float;
  queue : event Util.Heap.t;
  root_rng : Util.Rng.t;
  mutable events : int;
  metrics : Util.Metrics.t;
}

let create ~seed =
  {
    clock = 0.0;
    queue = Util.Heap.create ();
    root_rng = Util.Rng.create seed;
    events = 0;
    metrics = Util.Metrics.create ();
  }

let now t = t.clock
let rng t = t.root_rng
let events t = t.events
let metrics t = t.metrics

let schedule_at t ~time f =
  let time = if time < t.clock then t.clock else time in
  Util.Heap.push t.queue time { fire = f; guard = None }

let schedule t ~delay f = schedule_at t ~time:(t.clock +. Float.max 0.0 delay)  f

let timer t ~delay f =
  let guard = { cancelled = false } in
  Util.Heap.push t.queue
    (t.clock +. Float.max 0.0 delay)
    { fire = f; guard = Some guard };
  guard

let cancel guard = guard.cancelled <- true

let periodic t ~interval f =
  let guard = { cancelled = false } in
  let rec arm delay =
    Util.Heap.push t.queue (t.clock +. delay)
      {
        fire =
          (fun () ->
            f ();
            if not guard.cancelled then arm interval);
        guard = Some guard;
      }
  in
  arm interval;
  guard

let live ev = match ev.guard with None -> true | Some g -> not g.cancelled

let step t =
  match Util.Heap.pop t.queue with
  | None -> false
  | Some (time, ev) ->
    t.clock <- Float.max t.clock time;
    t.events <- t.events + 1;
    if live ev then ev.fire ();
    true

let run ?until ?max_events t =
  let stop_time = match until with None -> infinity | Some u -> u in
  let budget = ref (match max_events with None -> max_int | Some m -> m) in
  let continue = ref true in
  while !continue && !budget > 0 do
    match Util.Heap.peek t.queue with
    | None -> continue := false
    | Some (time, _) ->
      if time > stop_time then begin
        (* Leave future events queued; advance the clock to the horizon. *)
        t.clock <- Float.max t.clock stop_time;
        continue := false
      end
      else begin
        ignore (step t);
        decr budget
      end
  done

let pending t = Util.Heap.size t.queue
