type addr = int

let any_addr = -1

type profile = {
  latency : float;
  jitter : float;
  bandwidth : float;
  loss : float;
  recv_buffer : int;
}

(* Ping RTT on the paper's cluster is ~150 µs, so ~75 µs one-way; iperf
   showed 938 Mbit/s ≈ 117 MB/s of usable bandwidth. *)
let lan_profile =
  { latency = 120e-6; jitter = 20e-6; bandwidth = 117_000_000.0; loss = 0.0; recv_buffer = 0 }

let wan_profile =
  { latency = 40e-3; jitter = 8e-3; bandwidth = 12_500_000.0; loss = 0.0; recv_buffer = 0 }

(* Per-link Byzantine fault hooks. A link is (src, dst); [any_addr] on
   either side acts as a wildcard. Only [Hashtbl.find_opt]/[replace]
   touch the table, so iteration order can never leak into a run. *)
type link_fault = {
  mutable lf_drop : (label:string -> bool) option;
  mutable lf_corrupt : (dst:addr -> label:string -> string -> string) option;
}

type note = ..

type t = {
  engine : Engine.t;
  trace : Trace.t;
  rng : Util.Rng.t;
  prof : profile;
  handlers : (addr, src:addr -> string -> unit) Hashtbl.t;
  nic_free : (addr, float) Hashtbl.t;
  backlog : (addr, unit -> int) Hashtbl.t;
  mutable drops : (src:addr -> dst:addr -> label:string -> bool) list; (* newest first *)
  links : (addr * addr, link_fault) Hashtbl.t;
  mutable sent : int;
  mutable dropped : int;
  mutable bytes : int;
  mutable current : note option;  (* the note of the delivery being handled *)
}

let create engine ?trace prof =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  {
    engine;
    trace;
    rng = Util.Rng.split (Engine.rng engine);
    prof;
    handlers = Hashtbl.create 64;
    nic_free = Hashtbl.create 64;
    backlog = Hashtbl.create 64;
    drops = [];
    links = Hashtbl.create 16;
    sent = 0;
    dropped = 0;
    bytes = 0;
    current = None;
  }

let engine t = t.engine
let trace t = t.trace
let note t = t.current
let register t a h = Hashtbl.replace t.handlers a h
let unregister t a = Hashtbl.remove t.handlers a
let set_backlog_probe t a probe = Hashtbl.replace t.backlog a probe
let drop_next_matching t pred = t.drops <- pred :: t.drops
let drain_drops t = t.drops <- []

let link_key ~src ~dst = (src, dst)

let get_link t ~src ~dst =
  match Hashtbl.find_opt t.links (link_key ~src ~dst) with
  | Some lf -> lf
  | None ->
    let lf = { lf_drop = None; lf_corrupt = None } in
    Hashtbl.replace t.links (link_key ~src ~dst) lf;
    lf

(* Most-specific match wins: exact link, then sender wildcard, then
   receiver wildcard. Three point lookups, no table traversal. *)
let link_fault_for t ~src ~dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | Some lf -> Some lf
  | None -> (
    match Hashtbl.find_opt t.links (src, any_addr) with
    | Some lf -> Some lf
    | None -> Hashtbl.find_opt t.links (any_addr, dst))

let set_link_drop t ~src ~dst pred = (get_link t ~src ~dst).lf_drop <- Some pred
let set_link_corrupt t ~src ~dst f = (get_link t ~src ~dst).lf_corrupt <- Some f
let clear_link t ~src ~dst = Hashtbl.remove t.links (link_key ~src ~dst)

(* The newest armed predicate that matches fires, and is disarmed: the
   list loses that one element. A miss allocates nothing. *)
let one_shot_drop_matches t ~src ~dst ~label =
  let rec without_first_match = function
    | [] -> None
    | pred :: rest ->
      if pred ~src ~dst ~label then Some rest
      else (
        match without_first_match rest with
        | None -> None
        | Some rest -> Some (pred :: rest))
  in
  match without_first_match t.drops with
  | None -> false
  | Some rest ->
    t.drops <- rest;
    true

let link_drop_matches lf ~label =
  match lf with
  | Some { lf_drop = Some pred; _ } -> pred ~label
  | _ -> false

(* [detail] is a thunk so senders skip rendering it (a sprintf per
   message) whenever tracing is off — the common case for experiments. *)
let record t ~src ~dst ~label ~detail ~size ~delivered =
  if Trace.enabled t.trace then
    Trace.record t.trace
      {
        time = Engine.now t.engine;
        src;
        dst;
        label = (if delivered then label else label ^ " [LOST]");
        detail = detail ();
        size;
      }

let no_detail () = ""

let send t ?(label = "msg") ?(detail = no_detail) ?note ~src ~dst payload =
  let lf = link_fault_for t ~src ~dst in
  (* Corruption models a Byzantine sender NIC: the bytes on the wire are
     what the hook returns, so size/serialization charge the mutated
     payload. The note describes the sender's bytes, so it travels only
     with exactly those: a hook that returns its argument keeps it. *)
  let wire =
    match lf with Some { lf_corrupt = Some f; _ } -> f ~dst ~label payload | _ -> payload
  in
  let note = if (wire == payload) [@detlint.allow physical_eq] then note else None in
  let size = String.length wire in
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + size;
  let lost =
    one_shot_drop_matches t ~src ~dst ~label
    || link_drop_matches lf ~label
    || Util.Rng.bernoulli t.rng t.prof.loss
  in
  if lost then begin
    t.dropped <- t.dropped + 1;
    record t ~src ~dst ~label ~detail ~size ~delivered:false
  end
  else begin
    (* NIC egress serialization: back-to-back sends from one host queue
       behind each other at the configured bandwidth. *)
    let now = Engine.now t.engine in
    let nic = match Hashtbl.find_opt t.nic_free src with Some v -> v | None -> 0.0 in
    let start = Float.max now nic in
    let tx = float_of_int size /. t.prof.bandwidth in
    Hashtbl.replace t.nic_free src (start +. tx);
    let arrival =
      start +. tx
      +. Float.max 1e-6 (Util.Rng.gaussian t.rng ~mean:t.prof.latency ~stdev:t.prof.jitter)
    in
    record t ~src ~dst ~label ~detail ~size ~delivered:true;
    Engine.schedule_at t.engine ~time:arrival (fun () ->
        match Hashtbl.find_opt t.handlers dst with
        | None -> t.dropped <- t.dropped + 1
        | Some h ->
          let overflow =
            t.prof.recv_buffer > 0
            &&
            match Hashtbl.find_opt t.backlog dst with
            | None -> false
            | Some probe -> probe () >= t.prof.recv_buffer
          in
          if overflow then begin
            t.dropped <- t.dropped + 1;
            if Trace.enabled t.trace then
              Trace.record t.trace
                {
                  time = Engine.now t.engine;
                  src;
                  dst;
                  label = label ^ " [OVERFLOW]";
                  detail = detail ();
                  size;
                }
          end
          else begin
            t.current <- note;
            h ~src wire;
            t.current <- None
          end)
  end

let sent_count t = t.sent
let dropped_count t = t.dropped
let bytes_sent t = t.bytes
