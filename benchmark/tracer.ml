(* The traced run's instruments. All of them attach from outside the
   layers, through public interfaces:
   - a timed wrapper around the service's [make] and [execute];
   - an identity link-corruption hook per sender on the simulated
     network, which counts datagrams and bytes by label and keeps a
     bounded sample of payloads (it returns the payload unchanged and
     draws no randomness, so the run's virtual behaviour is unchanged);
   - Runtime_events GC spans.
   Buffers are fixed-size, and the tracer measures the host time and
   minor-heap words it spends itself, so the traced run can report them
   as the tracing overhead and subtract them from its allocation count. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type label_stat = { mutable count : int; mutable bytes : int }

(* Only floats, so OCaml stores them unboxed and updating them allocates
   nothing: the tracer's allocation bracket stays exact. *)
type acc = {
  mutable window_start : float;
  mutable boot_ns : float;  (** inside [Service.make] *)
  mutable exec_ns : float;  (** inside [execute], in the window *)
  mutable exec_vcost : float;  (** virtual seconds [execute] returned *)
  mutable exec_t0 : float;  (** the last execute call, not yet matched against GC *)
  mutable exec_t1 : float;
  mutable gc_begin : float;
  mutable gc_ns : float;
  mutable gc_in_exec_ns : float;
  mutable self_ns : float;  (** the tracer's own host time *)
  mutable self_words : float;  (** the tracer's own minor-heap words *)
}

type t = {
  mutable engine : Simnet.Engine.t option;
  mutable active : bool;  (** inside the measured window *)
  (* service spans *)
  mutable instances : int;
  mutable calls : int;
  sp_inst : int array;
  sp_client : int array;
  sp_vtime : float array;
  sp_start : float array;
  sp_ns : float array;
  sp_vcost : float array;
  mutable spans : int;
  ops : string array;  (** operations instance 0 executed, in order *)
  mutable n_ops : int;
  mutable exec_pending : bool;  (** [exec_t0, exec_t1] awaits its GC events *)
  (* datagrams *)
  labels : (string, label_stat) Hashtbl.t;
  samples : string array;
  mutable n_samples : int;
  mutable datagrams : int;
  (* GC *)
  cursor : Runtime_events.cursor;
  mutable gc_depth : int;
  mutable lost_events : int;
  a : acc;
}

let span_capacity = 16_384

let create () =
  Runtime_events.start ();
  {
    engine = None;
    active = false;
    instances = 0;
    calls = 0;
    sp_inst = Array.make span_capacity 0;
    sp_client = Array.make span_capacity 0;
    sp_vtime = Array.make span_capacity 0.0;
    sp_start = Array.make span_capacity 0.0;
    sp_ns = Array.make span_capacity 0.0;
    sp_vcost = Array.make span_capacity 0.0;
    spans = 0;
    ops = Array.make 4096 "";
    n_ops = 0;
    exec_pending = false;
    labels = Hashtbl.create 32;
    samples = Array.make 4096 "";
    n_samples = 0;
    datagrams = 0;
    cursor = Runtime_events.create_cursor None;
    gc_depth = 0;
    lost_events = 0;
    a =
      {
        window_start = 0.0;
        boot_ns = 0.0;
        exec_ns = 0.0;
        exec_vcost = 0.0;
        exec_t0 = 0.0;
        exec_t1 = 0.0;
        gc_begin = 0.0;
        gc_ns = 0.0;
        gc_in_exec_ns = 0.0;
        self_ns = 0.0;
        self_words = 0.0;
      };
  }

(* Top-level collector phases; nested phases are covered by these. *)
let gc_phase : Runtime_events.runtime_phase -> bool = function
  | EV_MINOR | EV_MAJOR_SLICE | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR
  | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_COMPACT | EV_EXPLICIT_GC_MAJOR_SLICE ->
    true
  | _ -> false

let ts_ns ts = Int64.to_float (Runtime_events.Timestamp.to_int64 ts)

(* A collection is synchronous: it lies wholly inside an execute call or
   wholly outside, and the poll right after each call sees every
   collection that ran inside it. *)
let on_gc_interval t b e =
  if t.active && b >= t.a.window_start then begin
    t.a.gc_ns <- t.a.gc_ns +. (e -. b);
    if t.exec_pending && b >= t.a.exec_t0 && e <= t.a.exec_t1 then
      t.a.gc_in_exec_ns <- t.a.gc_in_exec_ns +. (e -. b)
  end

let callbacks t =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if gc_phase phase then begin
        if t.gc_depth = 0 then t.a.gc_begin <- ts_ns ts;
        t.gc_depth <- t.gc_depth + 1
      end)
    ~runtime_end:(fun _ ts phase ->
      if gc_phase phase && t.gc_depth > 0 then begin
        t.gc_depth <- t.gc_depth - 1;
        if t.gc_depth = 0 then on_gc_interval t t.a.gc_begin (ts_ns ts)
      end)
    ~lost_events:(fun _ n -> t.lost_events <- t.lost_events + n)
    ()

(* Drain the runtime's event ring: after every execute call and every
   512 datagrams, often enough that it does not overflow (lost events
   are counted and reported). *)
let poll t =
  ignore (Runtime_events.read_poll t.cursor (callbacks t) None);
  t.exec_pending <- false

(* Run [f] as tracer work: its host time and minor words are the
   tracer's own. *)
let own t f =
  let t0 = now_ns () in
  let w0 = Gc.minor_words () in
  let r = f () in
  t.a.self_words <- t.a.self_words +. (Gc.minor_words () -. w0);
  t.a.self_ns <- t.a.self_ns +. (now_ns () -. t0);
  r

(* One execute call that started at [t.a.exec_t0] and ended at [t1]. *)
let record t ~inst ~client ~op ~t1 ~vcost =
  let t0 = t.a.exec_t0 in
  t.a.exec_t1 <- t1;
  t.calls <- t.calls + 1;
  t.a.exec_ns <- t.a.exec_ns +. (t1 -. t0);
  t.a.exec_vcost <- t.a.exec_vcost +. vcost;
  let k = t.spans in
  if k < span_capacity then begin
    t.sp_inst.(k) <- inst;
    t.sp_client.(k) <- client;
    t.sp_vtime.(k) <- (match t.engine with Some e -> Simnet.Engine.now e | None -> 0.0);
    t.sp_start.(k) <- t0;
    t.sp_ns.(k) <- t1 -. t0;
    t.sp_vcost.(k) <- vcost;
    t.spans <- k + 1
  end;
  (* Poll now, so the collections this call ran are attributed to it and
     an SQL call's many collections never overflow the event ring. *)
  t.exec_pending <- true;
  poll t;
  if inst = 0 && t.n_ops < Array.length t.ops then begin
    t.ops.(t.n_ops) <- op;
    t.n_ops <- t.n_ops + 1
  end

let wrap_service t (s : Pbft.Service.t) =
  {
    s with
    Pbft.Service.make =
      (fun pages ~first_page ->
        let b0 = now_ns () in
        let inst = s.Pbft.Service.make pages ~first_page in
        t.a.boot_ns <- t.a.boot_ns +. (now_ns () -. b0);
        let id = t.instances in
        t.instances <- id + 1;
        let exec = inst.Pbft.Service.execute in
        {
          inst with
          Pbft.Service.execute =
            (fun ~op ~client ~timestamp ~nondet ~readonly ->
              if not t.active then exec ~op ~client ~timestamp ~nondet ~readonly
              else begin
                t.a.exec_t0 <- now_ns ();
                let r = exec ~op ~client ~timestamp ~nondet ~readonly in
                let t1 = now_ns () in
                let w1 = Gc.minor_words () in
                record t ~inst:id ~client ~op ~t1 ~vcost:(snd r);
                t.a.self_words <- t.a.self_words +. (Gc.minor_words () -. w1);
                t.a.self_ns <- t.a.self_ns +. (now_ns () -. t1);
                r
              end);
        });
  }

let on_datagram t ~label payload =
  if t.active then begin
    let t0 = now_ns () in
    let w0 = Gc.minor_words () in
    let bytes = String.length payload in
    (match Hashtbl.find_opt t.labels label with
    | Some s ->
      s.count <- s.count + 1;
      s.bytes <- s.bytes + bytes
    | None -> Hashtbl.replace t.labels label { count = 1; bytes });
    if t.datagrams land 7 = 0 && t.n_samples < Array.length t.samples then begin
      t.samples.(t.n_samples) <- payload;
      t.n_samples <- t.n_samples + 1
    end;
    t.datagrams <- t.datagrams + 1;
    if t.datagrams land 511 = 0 then poll t;
    t.a.self_words <- t.a.self_words +. (Gc.minor_words () -. w0);
    t.a.self_ns <- t.a.self_ns +. (now_ns () -. t0)
  end;
  payload

(* Hook every sending address; [any_addr] stands for every receiver. *)
let attach t ~net ~engine ~senders =
  t.engine <- Some engine;
  List.iter
    (fun src ->
      Simnet.Net.set_link_corrupt net ~src ~dst:Simnet.Net.any_addr (fun ~dst:_ ~label p ->
          on_datagram t ~label p))
    senders

(* Counting starts here: the catch-up poll of everything since start-up
   (which overflows the ring during an SQL boot) belongs to set-up and
   warmup. *)
let window_begin t =
  poll t;
  t.gc_depth <- 0;
  t.lost_events <- 0;
  t.a.self_ns <- 0.0;
  t.a.self_words <- 0.0;
  t.a.window_start <- now_ns ();
  t.active <- true

(* The caller polled at the last slice end, inside the window. *)
let window_end t = t.active <- false

let labels t =
  List.sort compare (Hashtbl.fold (fun l s acc -> (l, s.count, s.bytes) :: acc) t.labels [])

let samples t = Array.sub t.samples 0 t.n_samples
let ops t = Array.sub t.ops 0 t.n_ops

(* Spans as JSON lines, one per recorded execute call. *)
let write_spans t ~path ~workload ~seed =
  let oc = open_out path in
  for k = 0 to t.spans - 1 do
    Printf.fprintf oc
      "{\"workload\":%S,\"seed\":%d,\"layer\":\"service\",\"name\":\"execute\",\"replica_instance\":%d,\"client\":%d,\"vtime_s\":%.9f,\"start_ns\":%.0f,\"host_ns\":%.0f,\"virtual_cost_s\":%.9f}\n"
      workload seed t.sp_inst.(k) t.sp_client.(k) t.sp_vtime.(k) t.sp_start.(k) t.sp_ns.(k)
      t.sp_vcost.(k)
  done;
  close_out oc
