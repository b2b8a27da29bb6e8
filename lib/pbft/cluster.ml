open Types

type t = {
  cfg : Config.t;
  engine : Simnet.Engine.t;
  net : Simnet.Net.t;
  registry : Replica.registry;
  mutable reps : Replica.t array;
  cls : Client.t array;
  tpk : Crypto.Threshold.public option;
}

let engine t = t.engine
let net t = t.net
let trace t = Simnet.Net.trace t.net
let config t = t.cfg
let registry t = t.registry
let replicas t = t.reps
let replica t i = t.reps.(i)
let clients t = t.cls
let client t i = t.cls.(i)

let create ?(seed = 1) ?(profile = Simnet.Net.lan_profile) ?(costs = Costmodel.default)
    ?(num_clients = 12) ?(service = Service.null ()) ?(threshold_replies = false) ?engine ?net
    (cfg : Config.t) =
  (match Config.validate cfg with Ok () -> () | Error e -> invalid_arg ("Cluster.create: " ^ e));
  (* A sharded deployment builds several groups on one shared engine,
     each with its own net (a private address space); a standalone
     cluster builds both itself. *)
  let engine =
    match (engine, net) with
    | Some e, _ -> e
    | None, Some n -> Simnet.Net.engine n
    | None, None -> Simnet.Engine.create ~seed
  in
  let net = match net with Some n -> n | None -> Simnet.Net.create engine profile in
  let rng = Util.Rng.split (Simnet.Engine.rng engine) in
  (* Simulated keys regardless of auth mode: the cost model charges the
     virtual price of the real arithmetic; tests exercise Real mode
     separately (see DESIGN.md, "Substitutions"). *)
  let mode = Crypto.Keychain.Simulated in
  let replica_signers = Array.init cfg.n (fun i -> Crypto.Keychain.make mode rng ~id:i) in
  let client_signers =
    Array.init num_clients (fun i ->
        Crypto.Keychain.make mode rng ~id:(addr_of_client (i + 1)))
  in
  let static_clients =
    if cfg.dynamic_clients then []
    else
      List.init num_clients (fun i ->
          let cid = i + 1 in
          ( cid,
            addr_of_client cid,
            Crypto.Keychain.verifier_to_string (Crypto.Keychain.verifier_of client_signers.(i)) ))
  in
  let registry =
    {
      Replica.reg_verifiers = Array.map Crypto.Keychain.verifier_of replica_signers;
      reg_group_secret = Bytes.to_string (Util.Rng.bytes rng 32);
      reg_static_clients = static_clients;
    }
  in
  (* The §3.3.1 extension: deal an (f+1, n) threshold service key. *)
  let threshold_key =
    if threshold_replies then begin
      let pk, shares = Crypto.Threshold.deal rng ~bits:192 ~threshold:(cfg.f + 1) ~parties:cfg.n in
      Some (pk, Array.of_list shares)
    end
    else None
  in
  let reps =
    Array.init cfg.n (fun i ->
        let threshold =
          Option.map (fun (pk, shares) -> (pk, shares.(i))) threshold_key
        in
        Replica.create ~cfg ~costs ~engine ~net ~id:i ~signer:replica_signers.(i) ~registry
          ~service ?threshold ())
  in
  let tpk = Option.map fst threshold_key in
  let cls =
    Array.init num_clients (fun i ->
        let cid = i + 1 in
        Client.create ~cfg ~costs ~engine ~net ~addr:(addr_of_client cid)
          ~signer:client_signers.(i) ~registry ?threshold_public:tpk
          ?client_id:(if cfg.dynamic_clients then None else Some cid)
          ())
  in
  (* Static mode: distribute the client-chosen MAC session keys out of
     band, as PBFT's configuration files do. *)
  if (not cfg.dynamic_clients) && cfg.use_macs then
    Array.iter
      (fun cl ->
        Array.iter
          (fun rep ->
            Replica.install_session_key rep ~addr:(Client.addr cl)
              (Client.session_key_for cl (Replica.id rep)))
          reps)
      cls;
  { cfg; engine; net; registry; reps; cls; tpk }

let run t ~seconds =
  let target = Simnet.Engine.now t.engine +. seconds in
  Simnet.Engine.run ~until:target t.engine

let restart_replica t i =
  t.reps.(i) <- Replica.restart t.reps.(i);
  (* Static mode: the restarted replica lost the client-chosen session
     keys along with the rest of its volatile state; redistribute them
     out of band exactly as the initial configuration did. (Dynamic-mode
     clients live in the membership table, which reloads from the
     restored checkpoint.) *)
  if (not t.cfg.dynamic_clients) && t.cfg.use_macs then
    Array.iter
      (fun cl ->
        Replica.install_session_key t.reps.(i) ~addr:(Client.addr cl)
          (Client.session_key_for cl i))
      t.cls
let crash_replica t i = Replica.crash t.reps.(i)

let total_completed t = Array.fold_left (fun acc c -> acc + Client.completed c) 0 t.cls
let threshold_public t = t.tpk
