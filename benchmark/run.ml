(* One run of one workload: set-up, warmup, a window of ten equal
   virtual-time slices of [Pbft.Cluster.run], a drain, and the
   correctness checks. The untraced and the traced run go through this
   same code; the traced run passes a tracer. *)

module W = Workloads

type phase = Warmup | Window | Drain

let slices = 10
let drain_limit = 5.0
let settle_time = 0.5

(* Latency samples. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let sorted b =
    let a = Array.sub b.a 0 b.n in
    Array.sort Float.compare a;
    a
end

(* The tail percentile reported: the highest with at least ten samples
   beyond it in every workload's window (the read mix completes about
   3,450 operations). *)
let tail_percentile = 99.7

(* Nearest-rank percentile of sorted samples. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Every public counter the benchmark reads, at one instant. *)
type snap = {
  cpu : float;  (** host CPU seconds of the process *)
  wall : float;  (** host monotonic ns *)
  vtime : float;
  ops : int;  (** operations completed inside the window so far *)
  events : int;
  pending : int;
  sent : int;
  bytes : int;
  dropped : int;
  hashed : int;
  copied : int;
  snapshots : int;
  pages_read : int;
  rows_scanned : int;
  minor : float;
  major : float;
  promoted : float;
  major_collections : int;
}

type state = {
  w : W.t;
  quick : bool;
  seed : int;
  service : Pbft.Service.t;
  cluster : Pbft.Cluster.t;
  engine : Simnet.Engine.t;
  net : Simnet.Net.t;
  door : Webgate.Frontdoor.t option;
  mutable phase : phase;
  mutable stop : bool;
  mutable done_window : int;  (** operations completed inside the window *)
  mutable attempted : int;  (** operations issued inside the window *)
  mutable resolved : int;  (** of those, how many got any reply *)
  mutable answered : int;  (** of those, how many got a correct one *)
  mutable wrong : int;  (** incorrect replies, in any phase *)
  lat : Fbuf.t;
  mutable last_reply : float;  (** virtual time of the last correct reply in the window *)
  mutable max_gap : float;  (** longest stretch of the window without one *)
  mutable t_crash : float option;
  mutable t_up : float option;  (** first correct reply to a post-crash arrival *)
  mutable t_restart : float option;
  mutable retired : Pbft.Replica.t list;
}

let snap st =
  (* Only [Gc.minor_words] counts the current minor heap exactly (on
     OCaml 5.1 [Gc.counters] undercounts it and [Gc.quick_stat] skips
     it), so allocation reads the same whenever collections happen. *)
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  {
    cpu = Sys.time ();
    wall = Tracer.now_ns ();
    vtime = Simnet.Engine.now st.engine;
    ops = st.done_window;
    events = Simnet.Engine.events st.engine;
    pending = Simnet.Engine.pending st.engine;
    sent = Simnet.Net.sent_count st.net;
    bytes = Simnet.Net.bytes_sent st.net;
    dropped = Simnet.Net.dropped_count st.net;
    hashed = Crypto.Sha256.bytes_hashed ();
    copied = Statemgr.Pages.bytes_copied ();
    snapshots = Statemgr.Pages.snapshots_taken ();
    pages_read = Relsql.Database.pages_read_total ();
    rows_scanned = Relsql.Database.rows_scanned_total ();
    minor;
    major;
    promoted;
    major_collections = (Gc.quick_stat ()).Gc.major_collections;
  }

(* A correct reply completed inside the window at [now]. *)
let served st ~now =
  st.done_window <- st.done_window + 1;
  st.max_gap <- Float.max st.max_gap (now -. st.last_reply);
  st.last_reply <- now

let num_clients (w : W.t) =
  match w.kind with W.Closed c -> c.clients | W.Gateway g -> g.door.Webgate.Frontdoor.connections

let conn_base = 100_000

(* Set-up: from before [Cluster.create] to just before the first send.
   Returns the host CPU seconds it took and, when traced, the part spent
   inside [Service.make]. *)
let setup (w : W.t) ~seed ~quick ~tracer =
  (match tracer with Some tr -> tr.Tracer.a.boot_ns <- 0.0 | None -> ());
  let c0 = Sys.time () in
  let service = W.make_service w ~quick in
  let service = match tracer with Some tr -> Tracer.wrap_service tr service | None -> service in
  let cluster = Pbft.Cluster.create ~seed ~num_clients:(num_clients w) ~service w.cfg in
  Simnet.Trace.set_enabled (Pbft.Cluster.trace cluster) false;
  let engine = Pbft.Cluster.engine cluster and net = Pbft.Cluster.net cluster in
  let door =
    match w.kind with
    | W.Closed _ -> None
    | W.Gateway g ->
      Some
        (Webgate.Frontdoor.create ~cfg:g.door ~engine ~net
           ~clients:(Pbft.Cluster.clients cluster) ())
  in
  let setup_s = Sys.time () -. c0 in
  let boot_s = match tracer with Some tr -> tr.Tracer.a.boot_ns /. 1e9 | None -> 0.0 in
  let st =
    {
      w;
      quick;
      seed;
      service;
      cluster;
      engine;
      net;
      door;
      phase = Warmup;
      stop = false;
      done_window = 0;
      attempted = 0;
      resolved = 0;
      answered = 0;
      wrong = 0;
      lat = Fbuf.create ();
      last_reply = 0.0;
      max_gap = 0.0;
      t_crash = None;
      t_up = None;
      t_restart = None;
      retired = [];
    }
  in
  (st, setup_s, boot_s)

let start_closed st (c : W.closed) =
  let check = c.check ~quick:st.quick in
  let classify = st.service.Pbft.Service.classify_readonly in
  let root = Util.Rng.create st.seed in
  Array.iteri
    (fun i cl ->
      let rng = Util.Rng.split root in
      let seq = ref 0 in
      let rec next () =
        if not st.stop then begin
          incr seq;
          let op = c.op rng ~client:i ~seq:!seq in
          let in_window = st.phase = Window in
          if in_window then st.attempted <- st.attempted + 1;
          let t0 = Simnet.Engine.now st.engine in
          Pbft.Client.invoke cl ~readonly:(classify op) op (fun reply ->
              let ok = check ~op reply in
              if not ok then st.wrong <- st.wrong + 1;
              if in_window then begin
                st.resolved <- st.resolved + 1;
                if ok then st.answered <- st.answered + 1
              end;
              if st.phase = Window then begin
                let now = Simnet.Engine.now st.engine in
                served st ~now;
                Fbuf.add st.lat (now -. t0)
              end;
              next ())
        end
      in
      next ())
    (Pbft.Cluster.clients st.cluster)

(* The open-loop generator: its own seeded Poisson process speaking the
   front door's wire codec. Each request is timed from its due time, and
   each arrival is exactly one attempt. *)
let start_gateway st (g : W.gateway) =
  let reply_bytes = match st.w.service with W.Null n -> n.reply_bytes | W.Sql _ -> -1 in
  let rng = Util.Rng.create st.seed in
  let payloads = Array.init 64 (fun _ -> W.payload rng g.op_bytes) in
  let next_req = Array.make g.sessions 0 in
  let outstanding : (int, float * bool) Hashtbl.t = Hashtbl.create 4096 in
  let next_session = ref 0 in
  let on_reply wire =
    match Webgate.Frontdoor.decode_reply wire with
    | None -> st.wrong <- st.wrong + 1
    | Some (status, session, req_id, result) -> (
      let key = (session lsl 32) lor req_id in
      match Hashtbl.find_opt outstanding key with
      | None -> ()
      | Some (due, in_window) ->
        Hashtbl.remove outstanding key;
        let now = Simnet.Engine.now st.engine in
        let ok = status = Webgate.Frontdoor.Done && String.length result = reply_bytes in
        if status = Webgate.Frontdoor.Done && not ok then st.wrong <- st.wrong + 1;
        if in_window then begin
          st.resolved <- st.resolved + 1;
          if ok then st.answered <- st.answered + 1
        end;
        if ok then begin
          (match (st.t_crash, st.t_up) with
          | Some tc, None when due >= tc -> st.t_up <- Some now
          | _ -> ());
          if st.phase = Window then begin
            served st ~now;
            (* Latency percentiles cover requests that arrived while the
               service was up. *)
            let up =
              match (st.t_crash, st.t_up) with
              | None, _ -> true
              | Some tc, None -> due < tc
              | Some tc, Some tu -> due < tc || due >= tu
            in
            if up then Fbuf.add st.lat (now -. due)
          end
        end)
  in
  for i = 0 to g.conns - 1 do
    Simnet.Net.register st.net (conn_base + i) (fun ~src:_ wire -> on_reply wire)
  done;
  let rate = if st.quick then g.quick_rate else g.rate in
  let gap () = Util.Rng.exponential rng ~mean:(1.0 /. rate) in
  let rec arrive () =
    if not st.stop then begin
      let session = !next_session in
      next_session := (session + 1) mod g.sessions;
      let req_id = next_req.(session) + 1 in
      next_req.(session) <- req_id;
      let in_window = st.phase = Window in
      if in_window then st.attempted <- st.attempted + 1;
      Hashtbl.replace outstanding
        ((session lsl 32) lor req_id)
        (Simnet.Engine.now st.engine, in_window);
      Simnet.Net.send st.net ~label:"gw-request" ~src:(conn_base + (session mod g.conns))
        ~dst:Webgate.Frontdoor.frontdoor_addr
        (Webgate.Frontdoor.encode_request ~session ~req_id ~op:payloads.(session land 63));
      Simnet.Engine.schedule st.engine ~delay:(gap ()) arrive
    end
  in
  Simnet.Engine.schedule st.engine ~delay:(gap ()) arrive

let max_view st =
  Array.fold_left (fun acc r -> Int.max acc (Pbft.Replica.view r)) 0 (Pbft.Cluster.replicas st.cluster)

(* The fault plan: crash the primary, restart it later; it rejoins from
   its disk checkpoint with a Merkle-diff transfer. *)
let plan_faults st (g : W.gateway) ~window =
  let n = st.w.cfg.Pbft.Config.n in
  let victim = ref 0 in
  Simnet.Engine.schedule st.engine ~delay:(g.crash_at *. window) (fun () ->
      victim := max_view st mod n;
      Pbft.Cluster.crash_replica st.cluster !victim;
      st.t_crash <- Some (Simnet.Engine.now st.engine));
  Simnet.Engine.schedule st.engine ~delay:(g.restart_at *. window) (fun () ->
      st.retired <- Pbft.Cluster.replica st.cluster !victim :: st.retired;
      Pbft.Cluster.restart_replica st.cluster !victim;
      st.t_restart <- Some (Simnet.Engine.now st.engine))

let senders st =
  let n = st.w.cfg.Pbft.Config.n in
  List.init n Fun.id
  @ Array.to_list (Array.map Pbft.Client.addr (Pbft.Cluster.clients st.cluster))
  @
  match st.w.kind with
  | W.Closed _ -> []
  | W.Gateway g -> Webgate.Frontdoor.frontdoor_addr :: List.init g.conns (fun i -> conn_base + i)

(* Every replica instance of the run, including those a restart
   replaced. *)
let instances st = Array.to_list (Pbft.Cluster.replicas st.cluster) @ st.retired

(* Replicas that executed the most must hold identical state, and there
   must be a quorum of them. *)
let agreement st =
  let live = Array.to_list (Pbft.Cluster.replicas st.cluster) in
  let top = List.fold_left (fun acc r -> Int.max acc (Pbft.Replica.last_executed r)) 0 live in
  let at_top = List.filter (fun r -> Pbft.Replica.last_executed r = top) live in
  let roots =
    List.map (fun r -> Statemgr.Merkle.root (Statemgr.Merkle.build (Pbft.Replica.pages r))) at_top
  in
  List.length at_top >= (2 * st.w.cfg.Pbft.Config.f) + 1
  && List.for_all (String.equal (List.hd roots)) roots

type measured = {
  setup_s : float;
  boot_s : float;
  window : float;
  snaps : snap array;  (** at window start, then after each slice *)
  attempted : int;
  failed : int;
  lat : float array;  (** sorted, virtual seconds *)
  heap_peak_words : int;
  checks : (string * bool) list;
  layer : (string * float) list;
      (** per-layer values this module reads off public counters; a
          metric that does not apply to the workload is absent *)
  replica : Pbft.Replica.t;  (** a replica that never crashed, for replays *)
  max_dirty : int list;  (** largest dirty-page set seen at a slice end (traced) *)
}

let per_op ops x = if ops > 0 then x /. float ops else 0.0

let measure (w : W.t) ~seed ~seconds ~quick ~tracer =
  let window = if quick then w.quick_window else seconds *. w.virtual_per_host_s in
  let st, setup_s, boot_s = setup w ~seed ~quick ~tracer in
  let n = w.cfg.Pbft.Config.n in
  let backup = Pbft.Cluster.replica st.cluster (n - 1) in
  (match tracer with
  | Some tr -> Tracer.attach tr ~net:st.net ~engine:st.engine ~senders:(senders st)
  | None -> ());
  (match w.kind with W.Closed c -> start_closed st c | W.Gateway g -> start_gateway st g);
  Pbft.Cluster.run st.cluster ~seconds:(W.warmup ~quick);
  let clients = Pbft.Cluster.clients st.cluster in
  let sum_clients f = Array.fold_left (fun acc c -> acc + f c) 0 clients in
  let busy r = Simnet.Cpu.total_busy (Pbft.Replica.cpu r) in
  let busy0 = Array.map busy (Pbft.Cluster.replicas st.cluster) in
  let view0 = max_view st in
  let exec0 = Pbft.Replica.executed_requests backup
  and seq0 = Pbft.Replica.last_executed backup in
  let retrans0 = sum_clients Pbft.Client.retransmissions in
  let completed0 = sum_clients Pbft.Client.completed in
  let tentative0 = sum_clients Pbft.Client.tentative_completed in
  let door0 =
    Option.map
      (fun d -> Webgate.Frontdoor.(completed d, flushes_size d, flushes_deadline d, shed d))
      st.door
  in
  let max_dirty = ref [] in
  (match tracer with Some tr -> Tracer.window_begin tr | None -> ());
  st.phase <- Window;
  st.last_reply <- Simnet.Engine.now st.engine;
  let snaps = Array.make (slices + 1) (snap st) in
  (match w.kind with W.Gateway g -> plan_faults st g ~window | W.Closed _ -> ());
  for k = 1 to slices do
    Pbft.Cluster.run st.cluster ~seconds:(window /. float slices);
    (match tracer with
    | Some tr ->
      Tracer.own tr (fun () ->
          Tracer.poll tr;
          let d = Statemgr.Pages.dirty (Pbft.Replica.pages backup) in
          if List.compare_lengths d !max_dirty > 0 then max_dirty := d)
    | None -> ());
    snaps.(k) <- snap st
  done;
  (match tracer with Some tr -> Tracer.window_end tr | None -> ());
  st.max_gap <- Float.max st.max_gap (Simnet.Engine.now st.engine -. st.last_reply);
  st.phase <- Drain;
  st.stop <- true;
  let limit = Simnet.Engine.now st.engine +. drain_limit in
  while st.resolved < st.attempted && Simnet.Engine.now st.engine < limit do
    Pbft.Cluster.run st.cluster ~seconds:0.05
  done;
  let heap_peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Pbft.Cluster.run st.cluster ~seconds:settle_time;
  let s0 = snaps.(0) and s1 = snaps.(slices) in
  let ops = s1.ops - s0.ops in
  let d f = float (f s1 - f s0) in
  let all = instances st in
  let sum_all f = List.fold_left (fun acc r -> acc + f r) 0 all in
  let busiest =
    Array.mapi
      (fun i b0 ->
        List.fold_left
          (fun acc r -> if Pbft.Replica.id r = i then acc +. busy r else acc)
          (-.b0) all)
      busy0
    |> Array.fold_left Float.max 0.0
  in
  let tracer_words = match tracer with Some tr -> tr.Tracer.a.self_words | None -> 0.0 in
  let alloc_words =
    s1.minor -. s0.minor +. (s1.major -. s0.major) -. (s1.promoted -. s0.promoted)
  in
  let view_changes = max_view st - view0 in
  let rejoined =
    match (st.t_restart, st.retired) with
    | Some t_r, old :: _ ->
      List.find_map
        (fun r ->
          if Pbft.Replica.id r = Pbft.Replica.id old && r != old then
            Option.map (fun t -> t -. t_r) (Pbft.Replica.recovery_completed_at r)
          else None)
        (Array.to_list (Pbft.Cluster.replicas st.cluster))
    | _ -> None
  in
  let completed = sum_clients Pbft.Client.completed - completed0 in
  let common =
    [
      ("simnet.events_per_op", per_op ops (d (fun s -> s.events)));
      ("simnet.datagrams_per_op", per_op ops (d (fun s -> s.sent)));
      ("simnet.bytes_per_op", per_op ops (d (fun s -> s.bytes)));
      ("simnet.primary_busy", busiest /. window);
      ( "simnet.cpu_queue_peak",
        float
          (List.fold_left
             (fun acc r -> Int.max acc (Simnet.Cpu.peak_queue_length (Pbft.Replica.cpu r)))
             0 all) );
      ("simnet.drops", d (fun s -> s.dropped));
      ("crypto.hashed_bytes_per_op", per_op ops (d (fun s -> s.hashed)));
      ( "pbft.ops_per_batch",
        per_op
          (Pbft.Replica.last_executed backup - seq0)
          (float (Pbft.Replica.executed_requests backup - exec0)) );
      ( "pbft.tentative_frac",
        per_op completed (float (sum_clients Pbft.Client.tentative_completed - tentative0)) );
      ( "pbft.retransmits_per_op",
        per_op ops (float (sum_clients Pbft.Client.retransmissions - retrans0)) );
      ("pbft.view_changes", float view_changes);
      ("pbft.unavail_s", st.max_gap);
      ("statemgr.bytes_copied_per_op", per_op ops (d (fun s -> s.copied)));
      ("statemgr.snapshots_per_op", per_op ops (d (fun s -> s.snapshots)));
      ("gc.alloc_kb_per_op", per_op ops ((alloc_words -. tracer_words) *. 8.0 /. 1024.0));
      ("gc.promoted_kb_per_op", per_op ops ((s1.promoted -. s0.promoted) *. 8.0 /. 1024.0));
      ("gc.major_collections", d (fun s -> s.major_collections));
    ]
  in
  let sql =
    match w.service with
    | W.Sql _ ->
      [
        ("relsql.pages_read_per_op", per_op ops (d (fun s -> s.pages_read)));
        ("relsql.rows_scanned_per_op", per_op ops (d (fun s -> s.rows_scanned)));
      ]
    | W.Null _ -> []
  in
  let gateway =
    match (st.door, door0) with
    | Some door, Some (c0, fs0, fd0, sh0) ->
      let fs = Webgate.Frontdoor.flushes_size door - fs0
      and fd = Webgate.Frontdoor.flushes_deadline door - fd0 in
      [
        ( "webgate.ops_per_flush",
          per_op (fs + fd) (float (Webgate.Frontdoor.completed door - c0)) );
        ("webgate.deadline_flush_frac", per_op (fs + fd) (float fd));
        ("webgate.queue_peak", float (Webgate.Frontdoor.queue_peak door));
        ("webgate.shed", float (Webgate.Frontdoor.shed door - sh0));
        ("statemgr.transfer_pages_fetched", float (sum_all Pbft.Replica.transfer_pages_fetched));
        ("statemgr.transfer_pages_full", float (sum_all Pbft.Replica.transfer_pages_full));
      ]
      @ Option.to_list (Option.map (fun s -> ("pbft.rejoin_s", s)) rejoined)
    | _ -> []
  in
  let checks =
    [
      ("every reply correct", st.wrong = 0);
      ("replicas agree on state", agreement st);
      ("operations completed in the window", ops > 0);
    ]
    @
    match w.kind with
    | W.Closed _ -> []
    | W.Gateway _ ->
      [
        ("a view change happened", view_changes >= 1);
        ("the restarted primary rejoined", Option.is_some rejoined);
        ("service resumed after the crash", Option.is_some st.t_up);
      ]
  in
  {
    setup_s;
    boot_s;
    window;
    snaps;
    attempted = st.attempted;
    failed = st.attempted - st.answered;
    lat = Fbuf.sorted st.lat;
    heap_peak_words;
    checks;
    layer = common @ sql @ gateway;
    replica = backup;
    max_dirty = !max_dirty;
  }

(* Further set-ups, timed and discarded, so that [setup_s] is a median:
   at least three in all, and up to 101 while they take under a second
   together. *)
let extra_setups w ~seed ~quick ~tracer ~spent =
  let rec go acc spent k =
    if k >= 101 || (k >= 3 && spent > 1.0) then List.rev acc
    else begin
      let _, s, b = setup w ~seed ~quick ~tracer in
      Gc.full_major ();
      go ((s, b) :: acc) (spent +. s) (k + 1)
    end
  in
  go [] spent 1

type slice_stat = { host_us_per_op : float; wall_ns : float }

let slice_stats m =
  List.init slices (fun k ->
      let a = m.snaps.(k) and b = m.snaps.(k + 1) in
      let ops = b.ops - a.ops in
      {
        host_us_per_op = (if ops > 0 then (b.cpu -. a.cpu) *. 1e6 /. float ops else Float.infinity);
        wall_ns = b.wall -. a.wall;
      })
