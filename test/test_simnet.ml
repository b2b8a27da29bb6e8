(* Tests for the discrete-event engine, virtual CPUs, the lossy network
   and the simulated disk. *)

(* --- engine --- *)

let test_engine_ordering () =
  let e = Simnet.Engine.create ~seed:1 in
  let log = ref [] in
  Simnet.Engine.schedule e ~delay:0.3 (fun () -> log := 3 :: !log);
  Simnet.Engine.schedule e ~delay:0.1 (fun () -> log := 1 :: !log);
  Simnet.Engine.schedule e ~delay:0.2 (fun () -> log := 2 :: !log);
  Simnet.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 0.3 (Simnet.Engine.now e)

let test_engine_same_time_fifo () =
  let e = Simnet.Engine.create ~seed:1 in
  let log = ref [] in
  for i = 1 to 5 do
    Simnet.Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Simnet.Engine.run e;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Simnet.Engine.create ~seed:1 in
  let fired = ref 0 in
  Simnet.Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Simnet.Engine.schedule e ~delay:3.0 (fun () -> incr fired);
  Simnet.Engine.run ~until:2.0 e;
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.0 (Simnet.Engine.now e);
  Simnet.Engine.run e;
  Alcotest.(check int) "rest run later" 2 !fired

let test_engine_cancel () =
  let e = Simnet.Engine.create ~seed:1 in
  let fired = ref false in
  let timer = Simnet.Engine.timer e ~delay:1.0 (fun () -> fired := true) in
  Simnet.Engine.cancel timer;
  Simnet.Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_periodic () =
  let e = Simnet.Engine.create ~seed:1 in
  let count = ref 0 in
  let timer =
    Simnet.Engine.periodic e ~interval:0.5 (fun () ->
        incr count)
  in
  Simnet.Engine.run ~until:2.6 e;
  Simnet.Engine.cancel timer;
  Simnet.Engine.run ~until:5.0 e;
  Alcotest.(check int) "five tickets then cancelled" 5 !count

let test_engine_nested_schedule () =
  let e = Simnet.Engine.create ~seed:1 in
  let log = ref [] in
  Simnet.Engine.schedule e ~delay:0.1 (fun () ->
      log := "outer" :: !log;
      Simnet.Engine.schedule e ~delay:0.1 (fun () -> log := "inner" :: !log));
  Simnet.Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "time advanced" 0.2 (Simnet.Engine.now e)

(* --- heap: the engine's queue order --- *)

let test_heap_sorted_drain () =
  let e = Simnet.Engine.create ~seed:1 in
  let rng = Util.Rng.create 9 in
  let n = 500 in
  let prev = ref neg_infinity in
  let count = ref 0 in
  for _ = 1 to n do
    let time = Util.Rng.float rng 100.0 in
    Simnet.Engine.schedule_at e ~time (fun () ->
        if time < !prev || not (Float.equal time (Simnet.Engine.now e)) then
          Alcotest.fail "heap order violated";
        prev := time;
        incr count)
  done;
  Simnet.Engine.run e;
  Alcotest.(check int) "all drained" n !count;
  Alcotest.(check int) "queue empty" 0 (Simnet.Engine.pending e)

let test_heap_fifo_ties () =
  let e = Simnet.Engine.create ~seed:1 in
  let log = ref [] in
  let timers =
    Array.init 10 (fun i -> Simnet.Engine.timer e ~delay:1.0 (fun () -> log := (i + 1) :: !log))
  in
  Simnet.Engine.cancel timers.(3);
  Simnet.Engine.cancel timers.(6);
  Simnet.Engine.run e;
  Alcotest.(check (list int)) "tie order" [ 1; 2; 3; 5; 6; 8; 9; 10 ] (List.rev !log)

let test_heap_peek () =
  let e = Simnet.Engine.create ~seed:1 in
  Alcotest.(check int) "empty" 0 (Simnet.Engine.pending e);
  let log = ref [] in
  Simnet.Engine.schedule e ~delay:5.0 (fun () -> log := "b" :: !log);
  Simnet.Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Alcotest.(check int) "size" 2 (Simnet.Engine.pending e);
  Simnet.Engine.run ~max_events:1 e;
  Alcotest.(check (list string)) "earliest first" [ "a" ] !log;
  Alcotest.(check (float 0.0)) "clock at its time" 1.0 (Simnet.Engine.now e);
  Alcotest.(check int) "one left" 1 (Simnet.Engine.pending e)

(* --- the engine against a sorted-list model --- *)

(* What a fired event does besides logging its id: nothing, cancel the
   timer made [k]-th (modulo the timers made so far; it may be itself,
   already fired or already cancelled), or schedule a one-shot child. *)
type action = Nothing | Cancel_in of int | Spawn of float

type engine_op =
  | Schedule of float * action
  | Schedule_at of float * action  (** absolute time, possibly past *)
  | Timer of float * action
  | Periodic of float * action
  | Cancel of int  (** the timer made [k]-th, modulo the timers made so far *)
  | Run_until of float  (** horizon relative to now *)
  | Run_max of int

let print_action = function
  | Nothing -> ""
  | Cancel_in k -> Printf.sprintf " cancel#%d" k
  | Spawn d -> Printf.sprintf " spawn+%g" d

let print_engine_op = function
  | Schedule (d, a) -> Printf.sprintf "schedule+%g%s" d (print_action a)
  | Schedule_at (t, a) -> Printf.sprintf "schedule@%g%s" t (print_action a)
  | Timer (d, a) -> Printf.sprintf "timer+%g%s" d (print_action a)
  | Periodic (i, a) -> Printf.sprintf "periodic/%g%s" i (print_action a)
  | Cancel k -> Printf.sprintf "cancel#%d" k
  | Run_until d -> Printf.sprintf "run-until+%g" d
  | Run_max n -> Printf.sprintf "run-max %d" n

let engine_op_gen =
  let open QCheck.Gen in
  let quarter lo hi = map (fun k -> float_of_int k *. 0.25) (int_range lo hi) in
  let action =
    frequency
      [ (3, return Nothing); (2, map (fun k -> Cancel_in k) nat); (1, map (fun d -> Spawn d) (quarter 0 8)) ]
  in
  frequency
    [
      (3, map2 (fun d a -> Schedule (d, a)) (quarter 0 32) action);
      (1, map2 (fun t a -> Schedule_at (t, a)) (quarter 0 64) action);
      (4, map2 (fun d a -> Timer (d, a)) (quarter 0 32) action);
      (1, map2 (fun i a -> Periodic (i, a)) (quarter 1 4) action);
      (4, map (fun k -> Cancel k) nat);
      (2, map (fun d -> Run_until d) (quarter 0 8));
      (2, map (fun n -> Run_max n) (int_range 0 5));
    ]

(* After each op (and after a final cancel-everything drain): the ids
   fired during it, the clock, and the queue length. *)
type observation = int list * float * int

(* The program against the engine. *)
let engine_observations ops : observation list =
  let e = Simnet.Engine.create ~seed:1 in
  let fired = ref [] and next_id = ref 0 and timers = ref [||] in
  let fresh () =
    incr next_id;
    !next_id
  in
  let nth k = !timers.(k mod Array.length !timers) in
  let rec callback id act () =
    fired := id :: !fired;
    match act with
    | Nothing -> ()
    | Cancel_in k -> if Array.length !timers > 0 then Simnet.Engine.cancel (nth k)
    | Spawn d -> Simnet.Engine.schedule e ~delay:d (callback (fresh ()) Nothing)
  in
  let keep tm = timers := Array.append !timers [| tm |] in
  let observe () =
    let o = (List.rev !fired, Simnet.Engine.now e, Simnet.Engine.pending e) in
    fired := [];
    o
  in
  let step op =
    (match op with
    | Schedule (d, a) -> Simnet.Engine.schedule e ~delay:d (callback (fresh ()) a)
    | Schedule_at (time, a) -> Simnet.Engine.schedule_at e ~time (callback (fresh ()) a)
    | Timer (d, a) -> keep (Simnet.Engine.timer e ~delay:d (callback (fresh ()) a))
    | Periodic (i, a) -> keep (Simnet.Engine.periodic e ~interval:i (callback (fresh ()) a))
    | Cancel k -> if Array.length !timers > 0 then Simnet.Engine.cancel (nth k)
    | Run_until d -> Simnet.Engine.run ~until:(Simnet.Engine.now e +. d) e
    | Run_max n -> Simnet.Engine.run ~max_events:n e);
    observe ()
  in
  let steps = List.map step ops in
  Array.iter Simnet.Engine.cancel !timers;
  Simnet.Engine.run e;
  steps @ [ observe () ]

(* The same program against a list kept sorted by (time, insertion seq);
   a timer's entries carry its index, and cancelling filters them out. *)
type model_event = {
  m_time : float;
  m_seq : int;
  m_id : int;
  m_timer : int option;
  m_every : float option;
  m_act : action;
}

let model_observations ops : observation list =
  let clock = ref 0.0 and seq = ref 0 and queue = ref [] in
  let fired = ref [] and next_id = ref 0 and timers = ref 0 and cancelled = Hashtbl.create 8 in
  let fresh () =
    incr next_id;
    !next_id
  in
  let enqueue ev =
    incr seq;
    queue :=
      List.sort
        (fun a b -> compare (a.m_time, a.m_seq) (b.m_time, b.m_seq))
        ({ ev with m_seq = !seq } :: !queue)
  in
  let push ?timer ?every time act =
    enqueue { m_time = time; m_seq = 0; m_id = fresh (); m_timer = timer; m_every = every; m_act = act }
  in
  let cancel k =
    if !timers > 0 then begin
      let h = k mod !timers in
      Hashtbl.replace cancelled h ();
      queue := List.filter (fun ev -> ev.m_timer <> Some h) !queue
    end
  in
  let new_timer () =
    incr timers;
    !timers - 1
  in
  let fire ev =
    fired := ev.m_id :: !fired;
    (match ev.m_act with
    | Nothing -> ()
    | Cancel_in k -> cancel k
    | Spawn d -> push (!clock +. Float.max 0.0 d) Nothing);
    match (ev.m_every, ev.m_timer) with
    | Some i, Some h when not (Hashtbl.mem cancelled h) -> enqueue { ev with m_time = !clock +. i }
    | _ -> ()
  in
  let rec run ~until budget =
    match !queue with
    | ev :: rest when budget > 0 ->
      if ev.m_time > until then clock := Float.max !clock until
      else begin
        queue := rest;
        clock := Float.max !clock ev.m_time;
        fire ev;
        run ~until (budget - 1)
      end
    | _ -> ()
  in
  let observe () =
    let o = (List.rev !fired, !clock, List.length !queue) in
    fired := [];
    o
  in
  let step op =
    (match op with
    | Schedule (d, a) -> push (!clock +. Float.max 0.0 d) a
    | Schedule_at (time, a) -> push (Float.max !clock time) a
    | Timer (d, a) -> push ~timer:(new_timer ()) (!clock +. Float.max 0.0 d) a
    | Periodic (i, a) -> push ~timer:(new_timer ()) ~every:i (!clock +. i) a
    | Cancel k -> cancel k
    | Run_until d -> run ~until:(!clock +. d) max_int
    | Run_max n -> run ~until:infinity n);
    observe ()
  in
  let steps = List.map step ops in
  for h = 0 to !timers - 1 do
    cancel h
  done;
  run ~until:infinity max_int;
  steps @ [ observe () ]

let prop_engine_model =
  QCheck.Test.make ~name:"engine agrees with a sorted-list model" ~count:1000
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_engine_op ops))
       QCheck.Gen.(list_size (int_range 0 150) engine_op_gen))
    (fun ops ->
      List.equal
        (fun (f, c, p) (f', c', p') -> List.equal Int.equal f f' && Float.equal c c' && p = p')
        (engine_observations ops) (model_observations ops))

(* --- cpu --- *)

let test_cpu_fifo_and_busy () =
  let e = Simnet.Engine.create ~seed:1 in
  let cpu = Simnet.Cpu.create e in
  let log = ref [] in
  Simnet.Cpu.execute cpu ~cost:1.0 (fun () -> log := ("a", Simnet.Engine.now e) :: !log);
  Simnet.Cpu.execute cpu ~cost:0.5 (fun () -> log := ("b", Simnet.Engine.now e) :: !log);
  Alcotest.(check int) "queued" 2 (Simnet.Cpu.queue_length cpu);
  Simnet.Engine.run e;
  (match List.rev !log with
  | [ ("a", ta); ("b", tb) ] ->
    Alcotest.(check (float 1e-9)) "a at 1.0" 1.0 ta;
    Alcotest.(check (float 1e-9)) "b after a" 1.5 tb
  | _ -> Alcotest.fail "wrong order");
  Alcotest.(check (float 1e-9)) "busy accum" 1.5 (Simnet.Cpu.total_busy cpu);
  Alcotest.(check int) "drained" 0 (Simnet.Cpu.queue_length cpu)

let test_cpu_idle_gap () =
  let e = Simnet.Engine.create ~seed:1 in
  let cpu = Simnet.Cpu.create e in
  let t_done = ref 0.0 in
  Simnet.Engine.schedule e ~delay:2.0 (fun () ->
      Simnet.Cpu.execute cpu ~cost:0.5 (fun () -> t_done := Simnet.Engine.now e));
  Simnet.Engine.run e;
  Alcotest.(check (float 1e-9)) "starts when scheduled" 2.5 !t_done

(* Multi-core dispatch: earliest-free core, lowest index on ties — the
   deterministic generalization of the single-core FIFO. *)
let test_cpu_multicore_overlap () =
  let e = Simnet.Engine.create ~seed:1 in
  let cpu = Simnet.Cpu.create ~cores:2 e in
  let t = Hashtbl.create 4 in
  let item name cost = Simnet.Cpu.execute cpu ~cost (fun () -> Hashtbl.replace t name (Simnet.Engine.now e)) in
  item "a" 1.0;
  item "b" 1.0;
  item "c" 0.5;
  Simnet.Engine.run e;
  (* a and b run concurrently on cores 0 and 1; c waits for the earliest
     free core and finishes at 1.5 — not 2.5 as a single core would. *)
  Alcotest.(check (float 1e-9)) "a overlaps" 1.0 (Hashtbl.find t "a");
  Alcotest.(check (float 1e-9)) "b overlaps" 1.0 (Hashtbl.find t "b");
  Alcotest.(check (float 1e-9)) "c queued behind earliest-free" 1.5 (Hashtbl.find t "c");
  Alcotest.(check (float 1e-9)) "busy sums over cores" 2.5 (Simnet.Cpu.total_busy cpu);
  Alcotest.(check (float 1e-9)) "utilization = busy / (elapsed x cores)"
    (2.5 /. (1.5 *. 2.0))
    (Simnet.Cpu.utilization cpu ~since:0.0)

let test_cpu_split_serial_vs_parallel () =
  let run cores =
    let e = Simnet.Engine.create ~seed:1 in
    let cpu = Simnet.Cpu.create ~cores e in
    let t_done = ref 0.0 in
    Simnet.Cpu.execute_split cpu ~costs:[ 0.5; 0.5; 0.5; 0.5 ] (fun () ->
        t_done := Simnet.Engine.now e);
    Simnet.Engine.run e;
    !t_done
  in
  (* The same split work is the serial sum on one core and fully
     overlapped on four. *)
  Alcotest.(check (float 1e-9)) "1 core = serial sum" 2.0 (run 1);
  Alcotest.(check (float 1e-9)) "4 cores overlap" 0.5 (run 4);
  Alcotest.(check (float 1e-9)) "2 cores: two rounds" 1.0 (run 2)

(* One path for every CPU shape: on one core the pieces run back to back,
   from the moment the core frees up. *)
let test_cpu_split_one_core_sum () =
  let e = Simnet.Engine.create ~seed:1 in
  let cpu = Simnet.Cpu.create e in
  let costs = [ 0.1; 0.25; 0.03; 0.7 ] in
  let finished = ref Float.nan in
  Simnet.Engine.schedule_at e ~time:1.5 (fun () ->
      Simnet.Cpu.execute cpu ~cost:0.4 ignore;
      Simnet.Cpu.execute_split cpu ~costs (fun () -> finished := Simnet.Engine.now e));
  Simnet.Engine.run e;
  Alcotest.(check (float 0.0)) "start + sum of costs" (List.fold_left ( +. ) (1.5 +. 0.4) costs)
    !finished;
  Alcotest.(check (float 1e-12)) "busy = every piece" (List.fold_left ( +. ) 0.4 costs)
    (Simnet.Cpu.total_busy cpu)

let test_cpu_multicore_deterministic () =
  let once () =
    let e = Simnet.Engine.create ~seed:7 in
    let cpu = Simnet.Cpu.create ~cores:3 e in
    let log = ref [] in
    List.iteri
      (fun i cost ->
        Simnet.Cpu.execute cpu ~cost (fun () -> log := (i, Simnet.Engine.now e) :: !log))
      [ 0.3; 0.1; 0.4; 0.1; 0.5; 0.9; 0.2; 0.6 ];
    Simnet.Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list (pair int (float 1e-12)))) "same schedule twice" (once ()) (once ());
  Alcotest.check_raises "cores must be positive"
    (Invalid_argument "Cpu.create: cores must be at least 1")
    (fun () -> ignore (Simnet.Cpu.create ~cores:0 (Simnet.Engine.create ~seed:1)))

(* --- net --- *)

let quiet_profile =
  { Simnet.Net.latency = 0.01; jitter = 0.0; bandwidth = 1e9; loss = 0.0; recv_buffer = 0 }

let test_net_delivery () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  let got = ref [] in
  Simnet.Net.register net 1 (fun ~src payload -> got := (src, payload) :: !got);
  Simnet.Net.send net ~src:0 ~dst:1 "hello";
  Simnet.Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !got;
  Alcotest.(check int) "sent" 1 (Simnet.Net.sent_count net)

let test_net_unregistered_dropped () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  Simnet.Net.send net ~src:0 ~dst:9 "void";
  Simnet.Engine.run e;
  Alcotest.(check int) "dropped" 1 (Simnet.Net.dropped_count net)

let test_net_full_loss () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e { quiet_profile with Simnet.Net.loss = 1.0 } in
  let got = ref 0 in
  Simnet.Net.register net 1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 50 do
    Simnet.Net.send net ~src:0 ~dst:1 "x"
  done;
  Simnet.Engine.run e;
  Alcotest.(check int) "all lost" 0 !got;
  Alcotest.(check int) "counted" 50 (Simnet.Net.dropped_count net)

let test_net_statistical_loss () =
  let e = Simnet.Engine.create ~seed:3 in
  let net = Simnet.Net.create e { quiet_profile with Simnet.Net.loss = 0.25 } in
  let got = ref 0 in
  Simnet.Net.register net 1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 10_000 do
    Simnet.Net.send net ~src:0 ~dst:1 "x"
  done;
  Simnet.Engine.run e;
  let rate = float_of_int !got /. 10_000.0 in
  if Float.abs (rate -. 0.75) > 0.02 then Alcotest.failf "delivery rate %f" rate

let test_net_targeted_drop () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  let got = ref [] in
  Simnet.Net.register net 1 (fun ~src:_ payload -> got := payload :: !got);
  Simnet.Net.drop_next_matching net (fun ~src:_ ~dst:_ ~label -> label = "kill-me");
  Simnet.Net.send net ~label:"kill-me" ~src:0 ~dst:1 "a";
  Simnet.Net.send net ~label:"kill-me" ~src:0 ~dst:1 "b";
  Simnet.Net.send net ~label:"other" ~src:0 ~dst:1 "c";
  Simnet.Engine.run e;
  (* One-shot: only the first matching datagram dies. *)
  Alcotest.(check (list string)) "one-shot drop" [ "b"; "c" ] (List.sort compare !got)

(* A partition is a dropping predicate on each link across it; clearing
   the links heals it. *)
let test_net_partition_heal () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  let got = ref 0 in
  Simnet.Net.register net 1 (fun ~src:_ _ -> incr got);
  Simnet.Net.register net 2 (fun ~src:_ _ -> incr got);
  let any = Simnet.Net.any_addr in
  Simnet.Net.set_link_drop net ~src:0 ~dst:any (fun ~label:_ -> true);
  Simnet.Net.set_link_drop net ~src:any ~dst:0 (fun ~label:_ -> true);
  Simnet.Net.send net ~src:0 ~dst:1 "x";
  Simnet.Net.send net ~src:1 ~dst:0 "x";
  Simnet.Net.send net ~src:1 ~dst:2 "same side";
  Simnet.Engine.run e;
  Alcotest.(check int) "partitioned" 1 !got;
  Simnet.Net.clear_link net ~src:0 ~dst:any;
  Simnet.Net.clear_link net ~src:any ~dst:0;
  Simnet.Net.send net ~src:0 ~dst:1 "y";
  Simnet.Engine.run e;
  Alcotest.(check int) "healed" 2 !got

let test_net_backlog_overflow () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e { quiet_profile with Simnet.Net.recv_buffer = 2 } in
  let backlog = ref 0 in
  let got = ref 0 in
  Simnet.Net.register net 1 (fun ~src:_ _ -> incr got);
  Simnet.Net.set_backlog_probe net 1 (fun () -> !backlog);
  backlog := 5;
  Simnet.Net.send net ~src:0 ~dst:1 "x";
  Simnet.Engine.run e;
  Alcotest.(check int) "overflow drop" 0 !got;
  backlog := 0;
  Simnet.Net.send net ~src:0 ~dst:1 "y";
  Simnet.Engine.run e;
  Alcotest.(check int) "accepted when drained" 1 !got

let test_net_bandwidth_serialization () =
  let e = Simnet.Engine.create ~seed:1 in
  let prof = { quiet_profile with Simnet.Net.bandwidth = 1000.0; latency = 0.0 } in
  (* jitter 0, latency 0 (clamped to 1us) -> arrival dominated by tx time *)
  let net = Simnet.Net.create e prof in
  let arrivals = ref [] in
  Simnet.Net.register net 1 (fun ~src:_ _ -> arrivals := Simnet.Engine.now e :: !arrivals);
  (* Two 500-byte datagrams at 1000 B/s: 0.5 s each, serialized. *)
  Simnet.Net.send net ~src:0 ~dst:1 (String.make 500 'x');
  Simnet.Net.send net ~src:0 ~dst:1 (String.make 500 'y');
  Simnet.Engine.run e;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
    Alcotest.(check (float 1e-3)) "first tx" 0.5 t1;
    Alcotest.(check (float 1e-3)) "second queued behind first" 1.0 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_trace_capture () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  Simnet.Net.register net 1 (fun ~src:_ _ -> ());
  let tr = Simnet.Net.trace net in
  Simnet.Net.send net ~label:"ping" ~src:0 ~dst:1 "x";
  Simnet.Engine.run e;
  Alcotest.(check int) "off until enabled" 0 (List.length (Simnet.Trace.entries tr));
  Simnet.Trace.set_enabled tr true;
  Simnet.Net.send net ~label:"ping" ~detail:(fun () -> "d") ~src:0 ~dst:1 "x";
  Simnet.Engine.run e;
  let entries = Simnet.Trace.filter tr (fun en -> en.Simnet.Trace.label = "ping") in
  Alcotest.(check int) "captured" 1 (List.length entries);
  Simnet.Trace.set_enabled tr false;
  Simnet.Net.send net ~label:"ping" ~src:0 ~dst:1 "x";
  Simnet.Engine.run e;
  Alcotest.(check int) "disabled" 1
    (List.length (Simnet.Trace.filter tr (fun en -> en.Simnet.Trace.label = "ping")))

(* The ring keeps the newest [capacity] entries, oldest first. *)
let test_trace_ring () =
  let capacity = 4 and extra = 3 in
  let tr = Simnet.Trace.create ~capacity () in
  Simnet.Trace.set_enabled tr true;
  for i = 0 to capacity + extra - 1 do
    Simnet.Trace.record tr
      { Simnet.Trace.time = float_of_int i; src = i; dst = 0; label = "x"; detail = ""; size = 0 }
  done;
  Alcotest.(check (list int)) "newest capacity, in order"
    (List.init capacity (fun i -> extra + i))
    (List.map (fun en -> en.Simnet.Trace.src) (Simnet.Trace.entries tr))

(* --- fault hooks --- *)

(* The newest armed predicate that matches fires, once; a predicate that
   did not match stays armed; [drain_drops] disarms whatever is left. *)
let test_drop_newest_once () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  let got = ref [] and fired = ref [] in
  Simnet.Net.register net 1 (fun ~src:_ p -> got := p :: !got);
  let arm name wanted =
    Simnet.Net.drop_next_matching net (fun ~src:_ ~dst:_ ~label ->
        String.equal label wanted
        && begin
          fired := name :: !fired;
          true
        end)
  in
  arm "old" "x";
  arm "y" "y";
  arm "z" "z";
  arm "new" "x";
  let send label p = Simnet.Net.send net ~label ~src:0 ~dst:1 p in
  send "x" "1";
  send "x" "2";
  send "y" "3";
  Simnet.Engine.run e;
  Alcotest.(check (list string)) "newest first, each once" [ "new"; "old"; "y" ] (List.rev !fired);
  Alcotest.(check (list string)) "all three dropped" [] !got;
  Simnet.Net.drain_drops net;
  send "x" "4";
  send "y" "5";
  send "z" "6";
  Simnet.Engine.run e;
  Alcotest.(check (list string)) "drained: nothing fires" [ "new"; "old"; "y" ] (List.rev !fired);
  Alcotest.(check (list string)) "drained: all delivered" [ "4"; "5"; "6" ] (List.sort compare !got)

let test_drain_drops () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  let got = ref 0 in
  Simnet.Net.register net 1 (fun ~src:_ _ -> incr got);
  Simnet.Net.drop_next_matching net (fun ~src:_ ~dst:_ ~label -> label = "a");
  Simnet.Net.drop_next_matching net (fun ~src:_ ~dst:_ ~label -> label = "b");
  Simnet.Net.drain_drops net;
  Simnet.Net.send net ~label:"a" ~src:0 ~dst:1 "x";
  Simnet.Net.send net ~label:"b" ~src:0 ~dst:1 "y";
  Simnet.Engine.run e;
  Alcotest.(check int) "drained drops let both through" 2 !got

let test_link_corrupt_hook () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  let got = ref [] in
  Simnet.Net.register net 1 (fun ~src:_ p -> got := p :: !got);
  Simnet.Net.set_link_corrupt net ~src:0 ~dst:1 (fun ~dst:_ ~label:_ p ->
      String.uppercase_ascii p);
  Simnet.Net.send net ~src:0 ~dst:1 "abc";
  Simnet.Engine.run e;
  Simnet.Net.clear_link net ~src:0 ~dst:1;
  Simnet.Net.send net ~src:0 ~dst:1 "abc";
  Simnet.Engine.run e;
  Alcotest.(check (list string)) "corrupted then clean" [ "abc"; "ABC" ] !got

type Simnet.Net.note += Tag of string

let note_tag net =
  match Simnet.Net.note net with
  | Some (Tag s) -> Some s
  | Some _ | None -> None

(* Each handler sees the note of its own delivery and no other; a send
   without a note delivers none, and nothing is current between
   deliveries. *)
let test_net_notes () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  let got = ref [] in
  let record dst ~src:_ p = got := (dst, p, note_tag net) :: !got in
  Simnet.Net.register net 1 (record 1);
  Simnet.Net.register net 2 (record 2);
  Simnet.Net.send net ~note:(Tag "a") ~src:0 ~dst:1 "a";
  Simnet.Net.send net ~src:0 ~dst:1 "b";
  Simnet.Net.send net ~note:(Tag "c") ~src:0 ~dst:2 "c";
  Simnet.Net.send net ~src:0 ~dst:2 "d";
  Simnet.Engine.run e;
  Alcotest.(check (list (triple int string (option string))))
    "notes by delivery"
    [ (1, "a", Some "a"); (1, "b", None); (2, "c", Some "c"); (2, "d", None) ]
    (List.sort compare !got);
  Alcotest.(check (option string)) "none outside a handler" None (note_tag net)

(* A corrupt hook that returns its argument keeps the note; one that
   returns other bytes, even a content-equal copy, drops it. *)
let test_link_corrupt_note () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  let got = ref [] in
  Simnet.Net.register net 1 (fun ~src:_ p -> got := (p, note_tag net) :: !got);
  let run hook =
    got := [];
    Simnet.Net.set_link_corrupt net ~src:0 ~dst:1 hook;
    Simnet.Net.send net ~note:(Tag "n") ~src:0 ~dst:1 "abc";
    Simnet.Engine.run e;
    !got
  in
  let seen = Alcotest.(list (pair string (option string))) in
  Alcotest.(check seen) "identity hook keeps it" [ ("abc", Some "n") ]
    (run (fun ~dst:_ ~label:_ p -> p));
  Alcotest.(check seen) "rewriting hook drops it" [ ("ABC", None) ]
    (run (fun ~dst:_ ~label:_ p -> String.uppercase_ascii p));
  Alcotest.(check seen) "a copy drops it" [ ("abc", None) ]
    (run (fun ~dst:_ ~label:_ p -> String.sub p 0 (String.length p)))

let test_reregister_replaces_handler () =
  let e = Simnet.Engine.create ~seed:1 in
  let net = Simnet.Net.create e quiet_profile in
  let old_got = ref 0 and new_got = ref 0 in
  Simnet.Net.register net 1 (fun ~src:_ _ -> incr old_got);
  (* Node restart: the fresh incarnation re-binds the same address. *)
  Simnet.Net.register net 1 (fun ~src:_ _ -> incr new_got);
  Simnet.Net.send net ~src:0 ~dst:1 "x";
  Simnet.Engine.run e;
  Alcotest.(check int) "old handler silent" 0 !old_got;
  Alcotest.(check int) "new handler receives" 1 !new_got

(* --- disk --- *)

let test_disk_rw () =
  let d = Simdisk.Disk.create () in
  let f = Simdisk.Disk.open_file d "file" in
  Simdisk.Disk.write f ~pos:0 "hello";
  Simdisk.Disk.write f ~pos:5 " world";
  Alcotest.(check string) "read" "hello world" (Simdisk.Disk.read f ~pos:0 ~len:11);
  Alcotest.(check int) "size" 11 (Simdisk.Disk.size f);
  Simdisk.Disk.write f ~pos:20 "sparse";
  Alcotest.(check string) "gap zero-filled" "\000\000\000" (Simdisk.Disk.read f ~pos:15 ~len:3);
  Alcotest.check_raises "oob" (Invalid_argument "Disk.read: out of bounds") (fun () ->
      ignore (Simdisk.Disk.read f ~pos:100 ~len:1))

let test_disk_crash_semantics () =
  let d = Simdisk.Disk.create () in
  let f = Simdisk.Disk.open_file d "file" in
  Simdisk.Disk.write f ~pos:0 "durable";
  Simdisk.Disk.sync f;
  Simdisk.Disk.write f ~pos:0 "VOLATIL";
  Simdisk.Disk.crash d;
  let f = Simdisk.Disk.open_file d "file" in
  Alcotest.(check string) "unsynced writes lost" "durable" (Simdisk.Disk.read f ~pos:0 ~len:7)

let test_disk_crash_loses_everything_unsynced () =
  let d = Simdisk.Disk.create () in
  let f = Simdisk.Disk.open_file d "f2" in
  Simdisk.Disk.write f ~pos:0 "gone";
  Simdisk.Disk.crash d;
  Alcotest.(check int) "file empty" 0 (Simdisk.Disk.size (Simdisk.Disk.open_file d "f2"))

let test_disk_truncate_and_costs () =
  let d = Simdisk.Disk.create ~sync_latency:0.002 () in
  let f = Simdisk.Disk.open_file d "f" in
  Simdisk.Disk.write f ~pos:0 "0123456789";
  Simdisk.Disk.truncate f 4;
  Alcotest.(check int) "truncated" 4 (Simdisk.Disk.size f);
  Alcotest.(check (float 1e-9)) "sync cost" 0.002 (Simdisk.Disk.sync_cost d);
  Alcotest.(check bool) "write cost positive" true (Simdisk.Disk.write_cost d 1000 > 0.0);
  Simdisk.Disk.sync f;
  Alcotest.(check int) "sync counted" 1 (Simdisk.Disk.sync_count d)

(* Growing a file over bytes a truncate dropped reads zeros, whether the
   growth is a truncate or a write past the end. *)
let test_disk_truncate_then_extend () =
  let d = Simdisk.Disk.create () in
  let f = Simdisk.Disk.open_file d "f" in
  Simdisk.Disk.write f ~pos:0 "abcdef";
  Simdisk.Disk.truncate f 2;
  Simdisk.Disk.truncate f 6;
  Alcotest.(check string) "truncate up" "ab\000\000\000\000" (Simdisk.Disk.read f ~pos:0 ~len:6);
  Simdisk.Disk.truncate f 1;
  Simdisk.Disk.write f ~pos:4 "x";
  Alcotest.(check string) "write past the end" "a\000\000\000x" (Simdisk.Disk.read f ~pos:0 ~len:5)

(* Random sequences against a naive model: the volatile and the durable
   contents of one file as strings. *)
type disk_op = Write of int * string | Truncate of int | Sync | Crash

let print_disk_op = function
  | Write (pos, s) -> Printf.sprintf "write %d %S" pos s
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Sync -> "sync"
  | Crash -> "crash"

let disk_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun pos s -> Write (pos, s)) (int_bound 300) (string_size ~gen:printable (int_bound 100)));
        (2, map (fun n -> Truncate n) (int_bound 400));
        (1, return Sync);
        (1, return Crash);
      ])

let resized s n =
  if n <= String.length s then String.sub s 0 n else s ^ String.make (n - String.length s) '\000'

let prop_disk_model =
  QCheck.Test.make ~name:"disk agrees with a string model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_disk_op ops))
       QCheck.Gen.(list_size (int_range 0 60) disk_op_gen))
    (fun ops ->
      let d = Simdisk.Disk.create () in
      let volatile = ref "" and durable = ref "" and syncs = ref 0 in
      List.for_all
        (fun op ->
          let f = Simdisk.Disk.open_file d "f" in
          (match op with
          | Write (pos, s) ->
            Simdisk.Disk.write f ~pos s;
            let base = resized !volatile (Int.max (String.length !volatile) (pos + String.length s)) in
            let stop = pos + String.length s in
            volatile := String.sub base 0 pos ^ s ^ String.sub base stop (String.length base - stop)
          | Truncate n ->
            Simdisk.Disk.truncate f n;
            volatile := resized !volatile n
          | Sync ->
            Simdisk.Disk.sync f;
            durable := !volatile;
            incr syncs
          | Crash ->
            Simdisk.Disk.crash d;
            volatile := !durable);
          let n = String.length !volatile in
          Simdisk.Disk.size f = n
          && String.equal (Simdisk.Disk.read f ~pos:0 ~len:n) !volatile
          && Simdisk.Disk.sync_count d = !syncs)
        ops)

let () =
  Alcotest.run "simnet"
    [
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo ties" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "periodic" `Quick test_engine_periodic;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          QCheck_alcotest.to_alcotest prop_engine_model;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorted drain" `Quick test_heap_sorted_drain;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "peek & size" `Quick test_heap_peek;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "fifo & busy accounting" `Quick test_cpu_fifo_and_busy;
          Alcotest.test_case "idle gap" `Quick test_cpu_idle_gap;
          Alcotest.test_case "multi-core overlap & utilization" `Quick test_cpu_multicore_overlap;
          Alcotest.test_case "split work: serial vs parallel" `Quick
            test_cpu_split_serial_vs_parallel;
          Alcotest.test_case "split on one core = start + sum" `Quick test_cpu_split_one_core_sum;
          Alcotest.test_case "multi-core determinism & validation" `Quick
            test_cpu_multicore_deterministic;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "unregistered dropped" `Quick test_net_unregistered_dropped;
          Alcotest.test_case "loss=1" `Quick test_net_full_loss;
          Alcotest.test_case "loss=0.25 statistics" `Quick test_net_statistical_loss;
          Alcotest.test_case "targeted one-shot drop" `Quick test_net_targeted_drop;
          Alcotest.test_case "partition & heal" `Quick test_net_partition_heal;
          Alcotest.test_case "receive-buffer overflow" `Quick test_net_backlog_overflow;
          Alcotest.test_case "NIC serialization" `Quick test_net_bandwidth_serialization;
          Alcotest.test_case "delivery notes" `Quick test_net_notes;
          Alcotest.test_case "trace capture" `Quick test_trace_capture;
          Alcotest.test_case "trace ring keeps the newest" `Quick test_trace_ring;
        ] );
      ( "fault plans",
        [
          Alcotest.test_case "one-shot drop: newest match, once" `Quick test_drop_newest_once;
          Alcotest.test_case "drain pending drops" `Quick test_drain_drops;
          Alcotest.test_case "link corruption hook" `Quick test_link_corrupt_hook;
          Alcotest.test_case "corruption hook and notes" `Quick test_link_corrupt_note;
          Alcotest.test_case "re-register replaces handler" `Quick test_reregister_replaces_handler;
        ] );
      ( "disk",
        [
          Alcotest.test_case "read/write/sparse" `Quick test_disk_rw;
          Alcotest.test_case "crash keeps only synced" `Quick test_disk_crash_semantics;
          Alcotest.test_case "crash loses unsynced file" `Quick test_disk_crash_loses_everything_unsynced;
          Alcotest.test_case "truncate & costs" `Quick test_disk_truncate_and_costs;
          Alcotest.test_case "truncate then extend reads zeros" `Quick test_disk_truncate_then_extend;
          QCheck_alcotest.to_alcotest prop_disk_model;
        ] );
    ]
