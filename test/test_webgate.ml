(* Tests for the §3.3.3 web support: the JSON codec and the browser ->
   bridge -> replica path. *)

let qcheck = Replay.qcheck


(* --- JSON --- *)

let test_json_parse_basics () =
  Alcotest.(check string) "null" "null" (Webgate.Json.print (Webgate.Json.parse "null"));
  Alcotest.(check string) "true" "true" (Webgate.Json.print (Webgate.Json.parse " true "));
  Alcotest.(check string) "num" "42" (Webgate.Json.print (Webgate.Json.parse "42"));
  Alcotest.(check string) "neg float" "-2.5" (Webgate.Json.print (Webgate.Json.parse "-2.5"));
  Alcotest.(check string) "string" {|"hi"|} (Webgate.Json.print (Webgate.Json.parse {|"hi"|}));
  Alcotest.(check string) "array" "[1,2,3]" (Webgate.Json.print (Webgate.Json.parse "[ 1 , 2, 3 ]"));
  Alcotest.(check string) "object" {|{"a":1,"b":[true,null]}|}
    (Webgate.Json.print (Webgate.Json.parse {| { "a" : 1, "b": [true, null] } |}))

let test_json_escapes () =
  let v = Webgate.Json.parse {|"line\nquote\"back\\slash\tuA"|} in
  Alcotest.(check string) "unescaped" "line\nquote\"back\\slash\tuA" (Webgate.Json.to_string_exn v);
  (* Re-printing escapes again and reparses to the same value. *)
  Alcotest.(check string) "roundtrip" (Webgate.Json.to_string_exn v)
    (Webgate.Json.to_string_exn (Webgate.Json.parse (Webgate.Json.print v)))

let test_json_errors () =
  List.iter
    (fun src ->
      match Webgate.Json.parse src with
      | exception Webgate.Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error: %s" src)
    [ ""; "{"; "[1,"; {|"unterminated|}; "tru"; "{1:2}"; "[1] trailing"; "{\"a\" 1}" ]

let test_json_accessors () =
  let v = Webgate.Json.parse {|{"s":"x","n":3,"b":false,"o":{"inner":1}}|} in
  Alcotest.(check string) "member str" "x" (Webgate.Json.to_string_exn (Webgate.Json.member "s" v));
  Alcotest.(check int) "member int" 3 (Webgate.Json.to_int_exn (Webgate.Json.member "n" v));
  Alcotest.(check bool) "member bool" false (Webgate.Json.to_bool_exn (Webgate.Json.member "b" v));
  Alcotest.(check bool) "member_opt none" true (Webgate.Json.member_opt "zzz" v = None);
  Alcotest.check_raises "shape mismatch" (Webgate.Json.Parse_error "expected string") (fun () ->
      ignore (Webgate.Json.to_string_exn (Webgate.Json.member "n" v)))

let test_json_bytes_armor () =
  let raw = "\x00\xff\"\\ binary \n" in
  let v = Webgate.Json.of_bytes raw in
  Alcotest.(check string) "roundtrip" raw (Webgate.Json.bytes_exn (Webgate.Json.parse (Webgate.Json.print v)))

let json_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Webgate.Json.Null;
        map (fun b -> Webgate.Json.Bool b) bool;
        map (fun n -> Webgate.Json.Num (float_of_int n)) small_signed_int;
        map (fun s -> Webgate.Json.Str s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      oneof
        [
          leaf;
          map (fun l -> Webgate.Json.Arr l) (list_size (int_bound 4) (tree (depth - 1)));
          map
            (fun l -> Webgate.Json.Obj (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) l))
            (list_size (int_bound 4) (tree (depth - 1)));
        ]
  in
  tree 3

let prop_json_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:300 (QCheck.make json_gen) (fun v ->
      Webgate.Json.parse (Webgate.Json.print v) = v)

let prop_json_pretty_roundtrip =
  QCheck.Test.make ~name:"pretty/parse roundtrip" ~count:200 (QCheck.make json_gen) (fun v ->
      Webgate.Json.parse (Webgate.Json.pretty v) = v)

(* --- browser: the PBFT client over the JSON transport --- *)

let browser_addr = 7777
let dynamic_cfg = { (Pbft.Config.default ~f:1) with Pbft.Config.dynamic_clients = true }

let web_cluster cfg =
  let cluster = Pbft.Cluster.create ~seed:21 ~num_clients:1 ~service:(Pbft.Service.counter ()) cfg in
  let engine = Pbft.Cluster.engine cluster in
  let net = Pbft.Cluster.net cluster in
  let bridges =
    List.init cfg.Pbft.Config.n (fun i ->
        Webgate.Gateway.Bridge.attach ~engine ~net ~replica:i)
  in
  let rng = Util.Rng.create 99 in
  let browser =
    Pbft.Client.create ~cfg ~costs:Pbft.Costmodel.default ~engine ~net ~addr:browser_addr
      ~transport:Webgate.Gateway.json_transport
      ~signer:(Crypto.Keychain.make Crypto.Keychain.Simulated rng ~id:browser_addr)
      ~registry:(Pbft.Cluster.registry cluster) ()
  in
  (cluster, bridges, browser)

let test_browser_join_and_invoke () =
  let cluster, bridges, browser = web_cluster dynamic_cfg in
  let joined = ref None in
  Pbft.Client.join browser ~idbuf:"webuser:pw" (fun c -> joined := c);
  Pbft.Cluster.run cluster ~seconds:10.0;
  (match !joined with
  | Some _ -> ()
  | None -> Alcotest.fail "browser join failed");
  let results = ref [] in
  let rec go n =
    if n <= 3 then Pbft.Client.invoke browser "incr" (fun r -> results := r :: !results; go (n + 1))
  in
  go 1;
  Pbft.Cluster.run cluster ~seconds:10.0;
  Alcotest.(check (list string)) "sequential increments over JSON" [ "1"; "2"; "3" ]
    (List.rev !results);
  Alcotest.(check bool) "bridges translated frames" true
    (List.for_all (fun b -> Webgate.Gateway.Bridge.frames_translated b > 0) bridges)

let test_browser_readonly () =
  let cluster, _bridges, browser = web_cluster dynamic_cfg in
  Pbft.Client.join browser ~idbuf:"webuser:pw" (fun _ ->
      Pbft.Client.invoke browser "incr" (fun _ -> ()));
  (* Run to quiescence first: the browser's quorum can complete before
     the slowest replica executes the ordered incr, so snapshotting
     inside the callback would blame that straggler on the get. *)
  Pbft.Cluster.run cluster ~seconds:15.0;
  let ordered_after_incr = Array.map Pbft.Replica.executed_requests (Pbft.Cluster.replicas cluster) in
  let got = ref "" in
  Pbft.Client.invoke browser ~readonly:true "get" (fun r -> got := r);
  Pbft.Cluster.run cluster ~seconds:5.0;
  Alcotest.(check string) "read-only over JSON" "1" !got;
  (* The read must ride the fast path: no replica ordered and executed it
     as a normal request. *)
  let ordered_now = Array.map Pbft.Replica.executed_requests (Pbft.Cluster.replicas cluster) in
  Alcotest.(check (array int)) "no ordered execution for the read" ordered_after_incr ordered_now

let test_browser_rejects_tampered_replies () =
  let cluster, _bridges, browser = web_cluster dynamic_cfg in
  (* Every replica -> browser link rewrites the result of each reply and
     re-encodes it under the original auth, as a man in the middle
     without the replicas' keys would. *)
  let forge ~dst:_ ~label:_ wire =
    match Pbft.Message.decode wire with
    | Some ({ payload = Pbft.Message.Reply r; _ } as msg) ->
      Pbft.Message.encode { msg with payload = Pbft.Message.Reply { r with r_result = "forged" } }
    | Some _ | None -> wire
  in
  for r = 0 to dynamic_cfg.Pbft.Config.n - 1 do
    Simnet.Net.set_link_corrupt (Pbft.Cluster.net cluster) ~src:r ~dst:browser_addr forge
  done;
  let joined = ref false and results = ref [] in
  Pbft.Client.join browser ~idbuf:"webuser:pw" (fun c ->
      joined := c <> None;
      Pbft.Client.invoke browser "incr" (fun r -> results := r :: !results));
  Pbft.Cluster.run cluster ~seconds:10.0;
  Alcotest.(check bool) "joined" true !joined;
  Alcotest.(check (list string)) "no forged result accepted" [] !results;
  Alcotest.(check bool) "still retransmitting" true (Pbft.Client.retransmissions browser > 0)

(* Replies MACed under a key the browser never chose are rejected after
   the JSON translation too. *)
let test_browser_rejects_wrong_key_replies () =
  let cluster, _bridges, browser = web_cluster dynamic_cfg in
  let wrong = Crypto.Mac.fresh_key (Util.Rng.create 5) in
  let retag ~dst:_ ~label:_ wire =
    match Pbft.Message.decode wire with
    | Some { payload = Pbft.Message.Reply _ as payload; _ } ->
      (Pbft.Message.seal payload (Pbft.Message.Macs [ (browser_addr, wrong) ])).frame
    | Some _ | None -> wire
  in
  for r = 0 to dynamic_cfg.Pbft.Config.n - 1 do
    Simnet.Net.set_link_corrupt (Pbft.Cluster.net cluster) ~src:r ~dst:browser_addr retag
  done;
  let joined = ref false and results = ref [] in
  Pbft.Client.join browser ~idbuf:"webuser:pw" (fun c ->
      joined := c <> None;
      Pbft.Client.invoke browser "incr" (fun r -> results := r :: !results));
  Pbft.Cluster.run cluster ~seconds:10.0;
  Alcotest.(check bool) "joined" true !joined;
  Alcotest.(check (list string)) "no re-tagged reply accepted" [] !results;
  Alcotest.(check bool) "still retransmitting" true (Pbft.Client.retransmissions browser > 0)

let test_bridge_rejects_garbage () =
  let cluster, bridges, _browser = web_cluster dynamic_cfg in
  let frames =
    [
      "not json at all";
      {|{"type":"nonsense"}|};
      {|{"type":"leave","client":-1}|};
      {|{"type":"leave","client":1.5}|};
      {|{"type":"leave","client":1e400}|};
    ]
  in
  List.iter
    (Simnet.Net.send (Pbft.Cluster.net cluster) ~src:browser_addr ~dst:(Webgate.Gateway.bridge_addr 0))
    frames;
  Pbft.Cluster.run cluster ~seconds:1.0;
  let bridge = List.hd bridges in
  Alcotest.(check int) "rejected" (List.length frames) (Webgate.Gateway.Bridge.rejected bridge);
  Alcotest.(check int) "translated" 0 (Webgate.Gateway.Bridge.frames_translated bridge)

(* --- the message <-> frame codec and bridge totality --- *)

(* Every message a client sends or receives, under each kind of auth. *)
let client_message_gen =
  let open QCheck.Gen in
  let id = int_bound 1_000_000 and blob = string_size ~gen:char (int_bound 24) in
  let payload =
    oneof
      [
        (let+ rq_client = id and+ rq_id = id and+ rq_op = blob and+ rq_readonly = bool
         and+ rq_timestamp = float_bound_inclusive 1e6 in
         Pbft.Message.Request_msg { rq_client; rq_id; rq_op; rq_readonly; rq_timestamp });
        (let+ j_addr = id and+ j_pubkey = blob and+ j_nonce = blob in
         Pbft.Message.Join_request { j_addr; j_pubkey; j_nonce });
        (let+ jr_addr = id and+ jr_proof = blob and+ jr_pubkey = blob and+ jr_idbuf = blob in
         Pbft.Message.Join_response { jr_addr; jr_proof; jr_pubkey; jr_idbuf });
        map (fun lv_client -> Pbft.Message.Leave_msg { lv_client }) id;
        (let+ sk_sender = id and+ sk_target = id and+ sk_key_box = blob in
         Pbft.Message.Session_key { sk_sender; sk_target; sk_key_box });
        (let+ r_view = id and+ r_client = id and+ r_id = id and+ r_replica = id and+ r_result = blob
         and+ r_tentative = bool and+ r_partial = opt blob in
         Pbft.Message.Reply { r_view; r_client; r_id; r_replica; r_result; r_tentative; r_partial });
        (let+ jc_replica = id and+ jc_addr = id and+ jc_nonce = blob in
         Pbft.Message.Join_challenge { jc_replica; jc_addr; jc_nonce });
        (let+ jl_replica = id and+ jl_client = id and+ jl_ok = bool in
         Pbft.Message.Join_reply { jl_replica; jl_client; jl_ok });
      ]
  in
  let auth =
    oneof
      [
        return Pbft.Message.No_auth;
        map (fun s -> Pbft.Message.Signed s) blob;
        map
          (fun tags -> Pbft.Message.Authenticated { Crypto.Authenticator.tags })
          (list_size (int_bound 4) (pair (int_bound 3) blob));
      ]
  in
  map2 (fun payload auth -> { Pbft.Message.payload; auth }) payload auth

let frame_text msg =
  match Webgate.Gateway.frame_of_message msg with
  | Some j -> Webgate.Json.print j
  | None -> Alcotest.fail "client message without a frame"

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"message_of_frame . frame_of_message = id" ~count:500
    (QCheck.make client_message_gen) (fun msg ->
      Webgate.Gateway.message_of_frame (Webgate.Json.parse (frame_text msg)) = Some msg)

(* A client's transport unframes what the replicas send: the datagram
   transport decodes it, the JSON transport translates it to its frame
   and back. Outside a receive handler no delivery note applies. *)
let transport_codec =
  let net = lazy (Simnet.Net.create (Simnet.Engine.create ~seed:1) Simnet.Net.lan_profile) in
  List.concat_map
    (fun (name, (t : Pbft.Transport.t)) ->
      Mutants.properties ~name:(name ^ " transport unframe") ~encode:Pbft.Message.encode
        ~decode:(fun wire -> fst (t.unframe (Lazy.force net) wire))
        ~equal:(fun msg (f : Pbft.Message.framed) -> f.msg = msg)
        client_message_gen)
    [
      ("datagram", Pbft.Transport.datagram Pbft.Costmodel.default);
      ("JSON", Webgate.Gateway.json_transport);
    ]

(* One cluster shared by the bridge properties; each case sends its
   frames to bridge 0 and runs the simulation until they are handled. A
   raise anywhere in the bridge escapes [Cluster.run] and fails the case. *)
let bridge_rig =
  lazy
    (let cluster, bridges, _browser = web_cluster dynamic_cfg in
     (cluster, List.hd bridges))

let bridge_accounts_for frames =
  let cluster, bridge = Lazy.force bridge_rig in
  let handled () = Webgate.Gateway.Bridge.(frames_translated bridge + rejected bridge) in
  let before = handled () in
  List.iter
    (Simnet.Net.send (Pbft.Cluster.net cluster) ~src:browser_addr ~dst:(Webgate.Gateway.bridge_addr 0))
    frames;
  Pbft.Cluster.run cluster ~seconds:0.01;
  handled () - before = List.length frames

let prop_bridge_total_on_bytes =
  QCheck.Test.make ~name:"bridge is total over arbitrary bytes" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 4) (string_gen_of_size Gen.(int_bound 64) Gen.char))
    bridge_accounts_for

let prop_bridge_total_on_mutations =
  let mutated =
    let open QCheck.Gen in
    let* text = map frame_text client_message_gen in
    (* Bias the mutation toward numbers and JSON syntax, where a one-byte
       change still parses: a sign, a decimal point, an exponent, a
       bracket. Every frame has a number, so [digits] is never empty. *)
    let digits =
      List.filter (fun i -> text.[i] >= '0' && text.[i] <= '9') (List.init (String.length text) Fun.id)
    in
    let+ pos = oneof [ int_bound (String.length text - 1); oneofl digits ]
    and+ c = oneof [ char; oneofl [ '-'; '.'; 'e'; '0'; '9'; '"'; ','; ':'; '['; ']'; '{'; '}' ] ] in
    String.mapi (fun i d -> if i = pos then c else d) text
  in
  QCheck.Test.make ~name:"bridge is total over single-byte mutations of frames" ~count:1000
    (QCheck.make ~print:Fun.id mutated) (fun frame -> bridge_accounts_for [ frame ])

let () =
  Alcotest.run "webgate"
    [
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "binary armour" `Quick test_json_bytes_armor;
          qcheck prop_json_roundtrip;
          qcheck prop_json_pretty_roundtrip;
        ] );
      ( "browser",
        [
          Alcotest.test_case "join + invoke over JSON (§3.3.3)" `Slow test_browser_join_and_invoke;
          Alcotest.test_case "read-only over JSON" `Slow test_browser_readonly;
          Alcotest.test_case "tampered replies not accepted over JSON" `Slow
            test_browser_rejects_tampered_replies;
          Alcotest.test_case "replies under another key not accepted over JSON" `Slow
            test_browser_rejects_wrong_key_replies;
          Alcotest.test_case "bridge rejects garbage" `Quick test_bridge_rejects_garbage;
        ] );
      ( "frames",
        [
          qcheck prop_frame_roundtrip;
          qcheck prop_bridge_total_on_bytes;
          qcheck prop_bridge_total_on_mutations;
        ]
        @ List.map qcheck transport_codec );
    ]
