(* Replay microbenchmarks, run after the traced window on the inputs it
   captured: each times one layer's public function in isolation. A
   measurement is the median of five batches, each sized to take about
   [batch_ns] (20 ms; 2 ms at --quick). *)

let now_ns = Tracer.now_ns
let batch_ns = ref 20e6

(* [f ()] does [units] units of work. Returns ns per unit. *)
let ns_per_unit ~units f =
  f ();
  let batch () =
    let t0 = now_ns () in
    f ();
    (now_ns () -. t0) /. float units
  in
  Run.median (List.init 5 (fun _ -> batch ()))

(* ns per item of [pass], which handles [n] items, repeated so that a
   batch takes about [batch_ns]. *)
let ns_per_item ~n pass =
  let t0 = now_ns () in
  pass ();
  let once = Float.max 1.0 (now_ns () -. t0) in
  let reps = Int.max 1 (int_of_float (!batch_ns /. once)) in
  ns_per_unit ~units:(reps * n) (fun () ->
      for _ = 1 to reps do
        pass ()
      done)

(* Engine schedule + step with empty handlers, at the workload's mean
   queue depth: every handler schedules one successor. *)
let engine_ns_per_event ~pending =
  let e = Simnet.Engine.create ~seed:1 in
  let rng = Util.Rng.create 1 in
  let delays = Array.init 4096 (fun _ -> Util.Rng.float rng 1e-3) in
  let k = ref 0 in
  let rec handler () =
    incr k;
    Simnet.Engine.schedule e ~delay:delays.(!k land 4095) handler
  in
  for i = 1 to Int.max 1 pending do
    Simnet.Engine.schedule e ~delay:delays.(i land 4095) handler
  done;
  let units = int_of_float (!batch_ns /. 100.0) in
  ns_per_unit ~units (fun () -> Simnet.Engine.run ~max_events:units e)

let copy s = Bytes.to_string (Bytes.of_string s)

(* Up to [n] backed pages of a replica's region. *)
let backed_pages ?(n = 256) replica =
  let pages = Pbft.Replica.pages replica in
  List.init (Statemgr.Pages.num_pages pages) Fun.id
  |> List.filter (fun p -> Statemgr.Pages.page_bytes pages p <> None)
  |> List.filteri (fun i _ -> i < n)

(* SHA-256 throughput on the replica's own state pages (the Merkle
   tree's input; per-message overhead is left out). *)
let sha256_ns_per_kb replica =
  let pages = Pbft.Replica.pages replica in
  let data =
    match backed_pages ~n:64 replica with
    | [] -> [| Statemgr.Pages.page pages 0 |]
    | l -> Array.of_list (List.map (Statemgr.Pages.page pages) l)
  in
  let kb = float (Array.fold_left (fun acc s -> acc + String.length s) 0 data) /. 1024.0 in
  ns_per_item ~n:1 (fun () -> Array.iter (fun s -> ignore (Crypto.Sha256.digest s)) data) /. kb

(* One four-tag authenticator per captured payload, under fresh keys
   each pass so the MAC memo never answers. *)
let authenticator_ns samples =
  let samples = Array.sub samples 0 (Int.min 256 (Array.length samples)) in
  if samples = [||] then 0.0
  else begin
    let rng = Util.Rng.create 2 in
    ns_per_item ~n:(Array.length samples) (fun () ->
        let keys = List.init 4 (fun i -> (i, Crypto.Mac.fresh_key rng)) in
        Array.iter (fun s -> ignore (Crypto.Authenticator.compute ~keys s)) samples)
  end

(* Decode and encode of the captured protocol messages. The message
   layer memoizes by physical equality in rings of at most 64 entries;
   fresh copies, at least 256 of them replayed in order, always miss, as
   a first sight of a message does. *)
let codec samples =
  match List.filter (fun s -> Pbft.Message.decode s <> None) (Array.to_list samples) with
  | [] -> (0.0, 0.0)
  | l ->
    let base = Array.of_list l in
    let n = Int.max 256 (Array.length base) in
    let wires = Array.init n (fun i -> copy base.(i mod Array.length base)) in
    let decode_ns =
      ns_per_item ~n (fun () -> Array.iter (fun s -> ignore (Pbft.Message.decode s)) wires)
    in
    let msgs = Array.map (fun s -> Option.get (Pbft.Message.decode (copy s))) wires in
    let encode_ns =
      ns_per_item ~n (fun () -> Array.iter (fun m -> ignore (Pbft.Message.encode m)) msgs)
    in
    (decode_ns, encode_ns)

(* A checkpoint as the replica takes one — Merkle update of the dirty
   pages, then the COW snapshot — on a copy of a replica's region, with
   the largest dirty set the window showed rewritten before each take. *)
let ckpt_take_us replica ~dirty =
  let pages = Statemgr.Pages.copy (Pbft.Replica.pages replica) in
  let merkle = Statemgr.Merkle.build pages in
  let ps = Statemgr.Pages.page_size pages in
  let round = ref 0 in
  let take () =
    incr round;
    List.iter
      (fun p ->
        Statemgr.Pages.notify_modify pages ~pos:(p * ps) ~len:1;
        Statemgr.Pages.write pages ~pos:(p * ps) (String.make 1 (Char.chr (!round land 255))))
      dirty;
    let t0 = now_ns () in
    Statemgr.Merkle.update merkle pages (Statemgr.Pages.dirty pages);
    Statemgr.Pages.clear_dirty pages;
    ignore (Statemgr.Checkpoint.take ~seqno:!round pages merkle);
    now_ns () -. t0
  in
  ignore (take ());
  Run.median (List.init 21 (fun _ -> take ())) /. 1e3

(* One page-sized [Pages.read] of each backed page of a replica's
   region (at most 256 of them). *)
let page_read_ns replica =
  let pages = Pbft.Replica.pages replica in
  let ps = Statemgr.Pages.page_size pages in
  match backed_pages replica with
  | [] -> 0.0
  | backed ->
    ns_per_item ~n:(List.length backed) (fun () ->
        List.iter (fun p -> ignore (Statemgr.Pages.read pages ~pos:(p * ps) ~len:ps)) backed)

(* The single-node baseline: the captured operation stream executed by
   one unreplicated instance of the same service, on a region of its own
   (booted outside the timing). Each operation runs once: replaying an
   INSERT would collide with itself. *)
let single_node_us_per_call (service : Pbft.Service.t) ops =
  if ops = [||] then 0.0
  else begin
    let pages =
      Statemgr.Pages.create ~page_size:service.page_size ~num_pages:service.app_pages ()
    in
    let inst = service.make pages ~first_page:0 in
    let readonly = Array.map service.classify_readonly ops in
    let t0 = now_ns () in
    Array.iteri
      (fun i op ->
        ignore (inst.execute ~op ~client:1 ~timestamp:0.0 ~nondet:"" ~readonly:readonly.(i)))
      ops;
    (now_ns () -. t0) /. float (Array.length ops) /. 1e3
  end
