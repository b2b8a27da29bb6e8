(* §3.3.3 realized: a browser-hosted voter. The browser is the ordinary
   PBFT client over the JSON transport: it speaks only JSON, each replica
   hosts a WebSocket/JSON bridge (no centralized component), and the
   browser signs with a browser-available public-key scheme. Exits 1
   unless the vote is accepted and the tally reads it back.

   Run with:  dune exec examples/web_voting.exe *)

open Pbft

let () =
  let cfg = { (Config.default ~f:1) with Config.dynamic_clients = true } in
  let cluster = Cluster.create ~seed:13 ~num_clients:1 ~service:(Evoting.service ()) cfg in
  let engine = Cluster.engine cluster in
  let net = Cluster.net cluster in

  (* One JSON bridge per replica — co-located, not a central agent. *)
  let bridges =
    List.init cfg.Config.n (fun i ->
        Webgate.Gateway.Bridge.attach ~engine ~net ~replica:i)
  in

  (* The native client plays election official; the browser is a voter. *)
  let official = Cluster.client cluster 0 in
  let rng = Util.Rng.create 4 in
  let browser =
    Client.create ~cfg ~costs:Costmodel.default ~engine ~net ~addr:7001
      ~transport:Webgate.Gateway.json_transport
      ~signer:(Crypto.Keychain.make Crypto.Keychain.Simulated rng ~id:7001)
      ~registry:(Cluster.registry cluster) ()
  in

  Client.join official ~idbuf:"official:pw" (fun _ ->
      Client.invoke official (Evoting.create_election_sql ~name:"referendum") (fun r ->
          Printf.printf "official creates election -> %s\n" (String.trim r)));
  Cluster.run cluster ~seconds:3.0;

  Client.join browser ~idbuf:"webvoter:pw" (function
    | Some id -> Printf.printf "browser joined over JSON as client %d\n" id
    | None -> print_endline "browser join denied");
  Cluster.run cluster ~seconds:3.0;

  (* The browser's vote: a JSON frame per replica, translated by the
     bridges into native protocol datagrams. *)
  let accepted = ref false and tally = ref "" in
  Client.invoke browser
    (Evoting.cast_vote_sql ~election:1 ~voter:"webvoter" ~choice:"yes")
    (fun r ->
      accepted := Evoting.vote_accepted r;
      Printf.printf "browser casts vote -> %s\n" (if !accepted then "accepted" else "rejected");
      Client.invoke browser ~readonly:true (Evoting.tally_sql ~election:1) (fun r ->
          tally := r;
          print_endline "browser reads tally over JSON:";
          print_string r));
  Cluster.run cluster ~seconds:5.0;

  List.iteri
    (fun i b ->
      Printf.printf "bridge %d translated %d frames (%d rejected)\n" i
        (Webgate.Gateway.Bridge.frames_translated b)
        (Webgate.Gateway.Bridge.rejected b))
    bridges;

  if not (!accepted && List.mem "yes | 1" (String.split_on_char '\n' !tally)) then begin
    prerr_endline "web_voting: the vote was not accepted or the tally did not read it back";
    exit 1
  end
