(* The determinism linter, tested the way any analyzer should be: one
   positive and one negative fixture per rule, the suppression
   mechanisms, and an end-to-end run proving the repo itself is clean. *)

open Detlint

let rules_of findings = List.map (fun (f : Finding.t) -> f.Finding.rule) findings

(* Fixtures are linted under a pseudo-path inside lib/pbft so the
   replay-critical and strict-module classifications apply. *)
let lint ?(rel = "lib/pbft/fixture.ml") src = Driver.lint_source ~rel src

let has rule findings = List.mem rule (rules_of findings)

let check_rule name rule ~positive ~negative () =
  let pos = lint positive in
  Alcotest.(check bool) (name ^ ": positive fixture flagged") true (has rule pos);
  let neg = lint negative in
  Alcotest.(check bool) (name ^ ": negative fixture clean") false (has rule neg)

(* --- one positive + one negative fixture per rule --- *)

let test_hashtbl_order =
  check_rule "hashtbl_order" Finding.Hashtbl_order
    ~positive:"let f tbl = Hashtbl.iter (fun k _ -> print_int k) tbl"
    ~negative:"let f tbl = Util.Sorted_tbl.iter (fun k _ -> print_int k) tbl"

let test_hashtbl_order_scope () =
  (* Outside the replay-critical set the same traversal is fine. *)
  let fs = lint ~rel:"lib/harness/fixture.ml" "let f tbl = Hashtbl.iter (fun k _ -> print_int k) tbl" in
  Alcotest.(check bool) "harness Hashtbl.iter unflagged" false (has Finding.Hashtbl_order fs)

let test_poly_compare =
  check_rule "poly_compare" Finding.Poly_compare
    ~positive:"type r = { t : float }\nlet f (a : r) (b : r) = compare a b"
    ~negative:"type r = { t : float }\nlet f (a : r) (b : r) = Float.compare a.t b.t"

let test_poly_equal () =
  let fs = lint "let check digest expected = digest = expected" in
  Alcotest.(check bool) "= on digest flagged" true (has Finding.Poly_compare fs);
  let fs = lint "let check digest expected = String.equal digest expected" in
  Alcotest.(check bool) "String.equal clean" false (has Finding.Poly_compare fs);
  (* Length comparisons are ints no matter what the operand is called. *)
  let fs = lint "let check signature = String.length signature = 32" in
  Alcotest.(check bool) "String.length _ = n clean" false (has Finding.Poly_compare fs)

let test_physical_eq =
  check_rule "physical_eq" Finding.Physical_eq
    ~positive:"let f a b = a == b"
    ~negative:"let f (a : int) (b : int) = a = b"

let test_wall_clock =
  check_rule "wall_clock" Finding.Wall_clock
    ~positive:"let now () = Unix.gettimeofday ()"
    ~negative:"let now engine = Simnet.Engine.now engine"

let test_ambient_rng =
  check_rule "ambient_rng" Finding.Ambient_rng
    ~positive:"let roll () = Random.int 6"
    ~negative:"let roll rng = Util.Rng.int rng 6"

let test_marshal_obj =
  check_rule "marshal_obj" Finding.Marshal_obj
    ~positive:"let save x = Marshal.to_string x []"
    ~negative:"let save x = Util.Codec.encode enc x"

let test_float_format () =
  (* Flagged only in digest/trace/wire modules. *)
  let src = "let render t = Printf.sprintf \"%f\" t" in
  let fs = lint ~rel:"lib/simnet/trace.ml" src in
  Alcotest.(check bool) "%f in trace module flagged" true (has Finding.Float_format fs);
  let fs = lint ~rel:"lib/simnet/trace.ml" "let render t = Printf.sprintf \"%d\" t" in
  Alcotest.(check bool) "%d clean" false (has Finding.Float_format fs);
  let fs = lint ~rel:"lib/pbft/replica.ml" src in
  Alcotest.(check bool) "%f outside digest modules unflagged" false (has Finding.Float_format fs);
  let fs = lint ~rel:"lib/simnet/trace.ml" "let render t = string_of_float t" in
  Alcotest.(check bool) "string_of_float flagged" true (has Finding.Float_format fs)

let test_catch_all =
  check_rule "catch_all" Finding.Catch_all
    ~positive:"let f g = try g () with _ -> ()"
    ~negative:"let f g = try g () with Not_found -> ()"

(* --- suppression mechanisms --- *)

let test_attribute_suppression () =
  let fs = lint "let[@detlint.allow hashtbl_order] f tbl = Hashtbl.iter ignore tbl" in
  Alcotest.(check int) "binding attribute suppresses" 0 (List.length fs);
  let fs = lint "let f a b = ((a == b) [@detlint.allow physical_eq])" in
  Alcotest.(check int) "expression attribute suppresses" 0 (List.length fs);
  (* The attribute names a rule; an unrelated rule still fires. *)
  let fs = lint "let[@detlint.allow physical_eq] f tbl = Hashtbl.iter ignore tbl" in
  Alcotest.(check bool) "wrong rule does not suppress" true (has Finding.Hashtbl_order fs)

let test_json_shape () =
  let fs = lint "let f a b = a == b" in
  let f = List.hd fs in
  let j = Finding.to_json f in
  (* Self-contained object with the documented keys; parseable by the
     repo's own JSON reader. *)
  match Webgate.Json.parse j with
  | Webgate.Json.Obj kvs ->
    List.iter
      (fun k -> Alcotest.(check bool) ("key " ^ k) true (List.mem_assoc k kvs))
      [ "rule"; "file"; "line"; "col"; "snippet"; "message" ]
  | _ -> Alcotest.fail "finding JSON did not parse as an object"
  | exception Webgate.Json.Parse_error e -> Alcotest.fail ("finding JSON unparseable: " ^ e)

(* --- trustlint: the taint pass, fixture per verdict --- *)

(* A minimal trust vocabulary declared the same way the repo declares
   its own: [@@trust.*] attributes on a pseudo-interface. *)
let wire_mli =
  ( "lib/pbft/wire.mli",
    "val decode : string -> string\n\
     [@@trust.source \"frame decoded off the wire\"]\n\
     val verify : string -> bool\n\
     [@@trust.sanitizer \"MAC check over the frame\"]\n\
     val store : string -> unit\n\
     [@@trust.sink \"state write\"]\n" )

let tlint ?(interfaces = [ wire_mli ]) ?(rel = "lib/pbft/fixture.ml") src =
  Driver.lint_trust_source ~interfaces ~rel src

let tainted fs = List.filter (fun (f : Finding.t) -> f.Finding.rule = Finding.Tainted_sink) fs

let test_trust_self_test () =
  (* The analyzer's acceptance fixture: one unverified decode -> state
     write, reported exactly once, with source and sink spans intact. *)
  let fs =
    tainted (tlint "let f s =\n  let m = Wire.decode s in\n  Wire.store m\n")
  in
  Alcotest.(check int) "exactly one finding" 1 (List.length fs);
  let f = List.hd fs in
  Alcotest.(check int) "sink line" 3 f.Finding.line;
  Alcotest.(check int) "sink col" 2 f.Finding.col;
  Alcotest.(check (option (pair int int))) "source span" (Some (2, 10)) f.Finding.origin;
  (* ... and the JSON carries the source span for tooling. *)
  match Webgate.Json.parse (Finding.to_json f) with
  | Webgate.Json.Obj kvs ->
    Alcotest.(check bool) "src_line key" true (List.mem_assoc "src_line" kvs);
    Alcotest.(check bool) "src_col key" true (List.mem_assoc "src_col" kvs)
  | _ -> Alcotest.fail "finding JSON did not parse as an object"

let test_trust_sanitizer_kills () =
  let fs =
    tainted
      (tlint
         "let f s =\n  let m = Wire.decode s in\n  if Wire.verify m then Wire.store m\n")
  in
  Alcotest.(check int) "guarded flow clean" 0 (List.length fs);
  (* The verdict only vouches on the branch where the check held. *)
  let fs =
    tainted
      (tlint
         "let f s =\n\
         \  let m = Wire.decode s in\n\
         \  if Wire.verify m then () else Wire.store m\n")
  in
  Alcotest.(check int) "else-branch still tainted" 1 (List.length fs);
  (* [not] swaps the polarity back. *)
  let fs =
    tainted
      (tlint
         "let f s =\n\
         \  let m = Wire.decode s in\n\
         \  if not (Wire.verify m) then () else Wire.store m\n")
  in
  Alcotest.(check int) "negated guard, else branch vouched" 0 (List.length fs)

let test_trust_propagation () =
  (* Tuples. *)
  let fs = tainted (tlint "let f s = let m, _n = (Wire.decode s, 0) in Wire.store m") in
  Alcotest.(check int) "through tuples" 1 (List.length fs);
  (* Records, construction and projection. *)
  let fs =
    tainted
      (tlint "type r = { v : string }\nlet f s = let r = { v = Wire.decode s } in Wire.store r.v")
  in
  Alcotest.(check int) "through records" 1 (List.length fs);
  (* Pattern matches. *)
  let fs =
    tainted (tlint "let f s = match Wire.decode s with \"\" -> () | m -> Wire.store m")
  in
  Alcotest.(check int) "through match arms" 1 (List.length fs);
  (* Pipelines. *)
  let fs = tainted (tlint "let f s = s |> Wire.decode |> Wire.store") in
  Alcotest.(check int) "through |>" 1 (List.length fs);
  (* Helper calls: the source is inside a local function, the sink in
     its caller — the summary layer inlines the definition. *)
  let fs =
    tainted (tlint "let parse s = Wire.decode s\nlet f s = Wire.store (parse s)")
  in
  Alcotest.(check int) "through local helpers" 1 (List.length fs);
  (* A clean value through the same shapes stays clean. *)
  let fs = tainted (tlint "let f s = Wire.store s") in
  Alcotest.(check int) "undecoded input unflagged" 0 (List.length fs)

let test_trust_conventions () =
  (* The convention table scopes raw codec reads to wire-decoding
     files: the same source text is a finding in the replica... *)
  let src = "let f t wire =\n  let r = Util.Codec.R.of_string wire in\n  Hashtbl.replace t r ()\n" in
  let fs = tainted (tlint ~interfaces:[] ~rel:"lib/pbft/replica.ml" src) in
  Alcotest.(check int) "codec read in replica flagged" 1 (List.length fs);
  (* ... and silent where codec reads parse trusted local images. *)
  let fs = tainted (tlint ~interfaces:[] ~rel:"lib/relsql/pager.ml" src) in
  Alcotest.(check int) "codec read in pager unflagged" 0 (List.length fs);
  (* The replica's intake idiom: check_auth's verdict covers the sink. *)
  let fs =
    tainted
      (tlint ~interfaces:[] ~rel:"lib/pbft/replica.ml"
         "let f t wire =\n\
         \  let r = Util.Codec.R.of_string wire in\n\
         \  if check_auth t r then Hashtbl.replace t r ()\n")
  in
  Alcotest.(check int) "check_auth covers the write" 0 (List.length fs)

(* The repo's own declarations: a delivery note, and the message read
   from it, are sources; the authenticator check, whose sender-keys
   shortcut trusts the note's keys, vouches for them. *)
let test_trust_delivery_note () =
  let root = if Sys.file_exists "lib" then "." else ".." in
  let read rel = (rel, In_channel.with_open_bin (Filename.concat root rel) In_channel.input_all) in
  let interfaces =
    List.map read [ "lib/simnet/net.mli"; "lib/pbft/message.mli"; "lib/crypto/authenticator.mli" ]
  in
  let findings src = List.length (tainted (tlint ~interfaces src)) in
  Alcotest.(check int) "note into a table flagged" 1
    (findings
       "let f t net =\n\
       \  match Simnet.Net.note net with Some n -> Hashtbl.replace t n () | None -> ()\n");
  Alcotest.(check int) "received message into a table flagged" 1
    (findings
       "let f t net w =\n\
       \  match Message.received net w with\n\
       \  | Some f -> Hashtbl.replace t f.Message.msg ()\n\
       \  | None -> ()\n");
  Alcotest.(check int) "authenticator check covers the write" 0
    (findings
       "let f t net w key =\n\
       \  match Message.received net w with\n\
       \  | Some f -> (\n\
       \    match f.Message.msg.Message.auth with\n\
       \    | Message.Authenticated a ->\n\
       \      if Crypto.Authenticator.check ~key ~replica:0 ~sender_keys:f.Message.mac_keys\n\
       \           ~pos:f.Message.pb_pos ~len:f.Message.pb_len f.Message.frame a\n\
       \      then Hashtbl.replace t f.Message.msg ()\n\
       \    | _ -> ())\n\
       \  | None -> ()\n")

(* The replica's intake shape: the verdict of [check_auth] comes back in
   a tuple and the dispatch runs in a second [charge] callback. Only the
   branch the verdict guards is vouched for; [ignore ok] guards nothing.
   The second [charge] is a re-entry of a helper already being inlined,
   which once stopped the analysis short of the dispatch. *)
let test_trust_ignored_verdict () =
  let root = if Sys.file_exists "lib" then "." else ".." in
  let read rel = (rel, In_channel.with_open_bin (Filename.concat root rel) In_channel.input_all) in
  let interfaces =
    List.map read [ "lib/simnet/net.mli"; "lib/pbft/message.mli"; "lib/crypto/authenticator.mli" ]
  in
  let intake use_verdict =
    "let charge t cost k = Simnet.Cpu.execute t.cpu ~cost k\n\
     let check_auth t ~src (f : Message.framed) =\n\
    \  match f.Message.msg.Message.auth with\n\
    \  | Message.Authenticated a ->\n\
    \    (1.0, Crypto.Authenticator.check ~key:t.key ~replica:src ~pos:f.Message.pb_pos\n\
    \            ~len:f.Message.pb_len f.Message.frame a)\n\
    \  | _ -> (0.0, false)\n\
     let dispatch t ~src msg = Hashtbl.replace t.tbl (src, msg) ()\n\
     let on_datagram t ~src wire =\n\
    \  let received = Message.received t.net wire in\n\
    \  charge t 0.0 (fun () ->\n\
    \      match received with\n\
    \      | None -> ()\n\
    \      | Some framed ->\n\
    \        let cost, ok = check_auth t ~src framed in\n\
    \        charge t cost (fun () ->\n"
    ^ use_verdict ^ ")\n"
  in
  let findings src =
    List.length (tainted (tlint ~interfaces ~rel:"lib/pbft/replica.ml" src))
  in
  Alcotest.(check int) "ignored verdict flagged" 1
    (findings (intake "            ignore ok;\n            dispatch t ~src framed.msg)"));
  Alcotest.(check int) "guarded dispatch clean" 0
    (findings (intake "            if ok then dispatch t ~src framed.msg)"))

let test_trust_suppression () =
  let fs =
    tainted
      (tlint
         "let f s =\n\
         \  let m = Wire.decode s in\n\
         \  (Wire.store m) [@trustlint.allow \"covered by the upstream MAC check\"]\n")
  in
  Alcotest.(check int) "[@trustlint.allow] suppresses" 0 (List.length fs)

let test_dispatch_catch_all () =
  let positive =
    "let route = function\n\
    \  | Prepare p -> ignore p\n\
    \  | Commit c -> ignore c\n\
    \  | Reply r -> ignore r\n\
    \  | _ -> ()\n"
  in
  let fs = lint positive in
  Alcotest.(check bool) "wildcard in dispatch flagged" true (has Finding.Dispatch_catch_all fs);
  (* Two protocol heads don't make a dispatch. *)
  let fs = lint "let f = function Some x -> x | _ -> 0" in
  Alcotest.(check bool) "ordinary match unflagged" false (has Finding.Dispatch_catch_all fs);
  (* Enumerating the ignored constructors is the fix. *)
  let fs =
    lint
      "let route = function\n\
      \  | Prepare p -> ignore p\n\
      \  | Commit c -> ignore c\n\
      \  | Reply _ | Status _ -> ()\n"
  in
  Alcotest.(check bool) "enumerated remainder clean" false (has Finding.Dispatch_catch_all fs);
  (* Outside the protocol layers the rule stays quiet. *)
  let fs = lint ~rel:"lib/harness/fixture.ml" positive in
  Alcotest.(check bool) "non-protocol dir unflagged" false (has Finding.Dispatch_catch_all fs)

(* --- adversary cross-check (static finding <-> dynamic defense) --- *)

let test_adversary_cross_check () =
  (* Statically: a replica intake that skips check_auth is exactly the
     shape trustlint exists to flag. *)
  let fs =
    tainted
      (tlint ~interfaces:[] ~rel:"lib/pbft/replica.ml"
         "let on_datagram t wire =\n\
         \  let r = Util.Codec.R.of_string wire in\n\
         \  Hashtbl.replace t r ()\n")
  in
  Alcotest.(check int) "unverified intake flagged" 1 (List.length fs);
  (* Dynamically: the real replica keeps check_auth on that path, so an
     adversary corrupting MACs is rejected at intake (auth_failures)
     while the cluster stays safe and live. *)
  let scenario =
    List.find
      (fun (s : Harness.Faults.scenario) -> String.equal s.name "corrupt-macs")
      (Harness.Faults.suite ~speculative:false ())
  in
  let c, failures = Harness.Faults.run scenario in
  Alcotest.(check bool) "corrupted MACs rejected at intake" true
    (Util.Metrics.total c.Harness.Faults.correct ~layer:"pbft" "auth_failures" > 0);
  Alcotest.(check (list string)) "scenario failures" [] failures

(* --- unused_export: interface [lib/pbft/m.mli] against consumer units --- *)

(* The [val] lines the rule flags, given [m.mli] and the consumer units. *)
let flagged_exports iface units =
  let rel = "lib/pbft/m.mli" in
  let parse (u, src) =
    let lexbuf = Lexing.from_string src in
    Lexing.set_filename lexbuf u;
    (u, Parse.implementation lexbuf)
  in
  Exports.lint
    ~interfaces:
      [ (rel, Array.of_list (String.split_on_char '\n' iface), Trust.parse_interface ~filename:rel iface) ]
    ~units:(List.map parse (("lib/pbft/m.ml", "let a = 1\nlet b = a\nmodule W = struct let u = 0 end") :: units))
  |> List.map (fun (f : Finding.t) -> f.Finding.snippet)

let iface = "val a : int\nval b : int\nmodule W : sig\n  val u : int\nend"

let test_unused_export_flagged () =
  Alcotest.(check (list string)) "nothing references the interface"
    [ "val a : int"; "val b : int"; "val u : int" ] (flagged_exports iface []);
  (* [b] is read inside m.ml itself, which does not count. *)
  Alcotest.(check (list string)) "own-unit use only"
    [ "val b : int"; "val u : int" ]
    (flagged_exports iface [ ("bin/main.ml", "let () = print_int M.a") ])

let test_unused_export_references () =
  List.iter
    (fun (how, src) ->
      Alcotest.(check (list string)) how [] (flagged_exports iface [ ("bench/user.ml", src) ]))
    [
      ("wrapper-qualified", "let x = Pbft.M.a + Pbft.M.b + Pbft.M.W.u");
      ("unwrapped, as inside the library", "let x = M.a + M.b + M.W.u");
      ("module alias", "module F = Pbft.M\nmodule G = F.W\nlet x = F.a + F.b + G.u");
      ("let module alias", "let x = let module F = Pbft.M in F.a + F.b + F.W.u");
      ("open", "open Pbft\nopen M\nlet x = a + b + W.u");
      ("let open", "let x = let open Pbft.M in a + b + W.u");
      ("M.( ... )", "let x = Pbft.M.(a + b + W.u)");
      ("nested open", "open Pbft.M.W\nlet x = Pbft.M.a + Pbft.M.b + u");
      ("whole-module use", "module S = Set.Make (Pbft.M)\ninclude Pbft.M");
    ]

let test_unused_export_allow () =
  let allowed = "val a : int\n[@@detlint.allow unused_export \"tests only\"]" in
  Alcotest.(check (list string)) "reasoned allow suppresses" [] (flagged_exports allowed []);
  let bare = "val a : int\n[@@detlint.allow unused_export]" in
  Alcotest.(check (list string)) "allow without a reason" [ "val a : int" ] (flagged_exports bare []);
  Alcotest.(check (list string)) "stale allow on a used export" [ "val a : int" ]
    (flagged_exports allowed [ ("examples/ex.ml", "let x = Pbft.M.a") ]);
  (* Tests are not consumers: a test-only export still needs the allow. *)
  Alcotest.(check (list string)) "test/ does not count" [ "val a : int" ]
    (flagged_exports "val a : int" [ ("test/test_m.ml", "let x = Pbft.M.a") ])

(* --- end to end: the repository itself lints clean --- *)

let test_repo_clean () =
  (* Under `dune runtest` the cwd is _build/default/test and the
     (source_tree ../lib) dependency materialises the sources next to
     it; under `dune exec` from the checkout the root is ".". *)
  let root = if Sys.file_exists "lib" then "." else ".." in
  (* unused_export resolves references from these dirs (test/dune copies
     them next to lib/), so a missing one would turn live exports into
     findings. *)
  List.iter
    (fun d -> Alcotest.(check bool) (d ^ "/ visible") true (Sys.file_exists (Filename.concat root d)))
    Exports.consumer_dirs;
  let outcome = Driver.run ~passes:[ Driver.Determinism; Driver.Trust ] ~root () in
  Alcotest.(check bool) "scanned a real tree" true (outcome.Driver.files_scanned > 40);
  Alcotest.(check (list string)) "no parse errors" [] outcome.Driver.errors;
  List.iter (fun f -> Printf.eprintf "unexpected: %s\n" (Finding.to_human f)) outcome.Driver.findings;
  Alcotest.(check int) "no findings" 0 (List.length outcome.Driver.findings)

let () =
  Alcotest.run "detlint"
    [
      ( "rules",
        [
          Alcotest.test_case "hashtbl order" `Quick test_hashtbl_order;
          Alcotest.test_case "hashtbl order scope" `Quick test_hashtbl_order_scope;
          Alcotest.test_case "poly compare" `Quick test_poly_compare;
          Alcotest.test_case "poly equal on digests" `Quick test_poly_equal;
          Alcotest.test_case "physical eq" `Quick test_physical_eq;
          Alcotest.test_case "wall clock" `Quick test_wall_clock;
          Alcotest.test_case "ambient rng" `Quick test_ambient_rng;
          Alcotest.test_case "marshal & obj" `Quick test_marshal_obj;
          Alcotest.test_case "float format" `Quick test_float_format;
          Alcotest.test_case "catch all" `Quick test_catch_all;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "attributes" `Quick test_attribute_suppression;
          Alcotest.test_case "json findings" `Quick test_json_shape;
        ] );
      ( "trustlint",
        [
          Alcotest.test_case "analyzer self-test" `Quick test_trust_self_test;
          Alcotest.test_case "sanitizer verdicts" `Quick test_trust_sanitizer_kills;
          Alcotest.test_case "taint propagation" `Quick test_trust_propagation;
          Alcotest.test_case "convention scoping" `Quick test_trust_conventions;
          Alcotest.test_case "delivery notes" `Quick test_trust_delivery_note;
          Alcotest.test_case "an ignored verdict covers nothing" `Quick test_trust_ignored_verdict;
          Alcotest.test_case "suppression" `Quick test_trust_suppression;
          Alcotest.test_case "dispatch catch-all" `Quick test_dispatch_catch_all;
          Alcotest.test_case "adversary cross-check" `Quick test_adversary_cross_check;
        ] );
      ( "unused_export",
        [
          Alcotest.test_case "unreferenced vals flagged" `Quick test_unused_export_flagged;
          Alcotest.test_case "references resolved" `Quick test_unused_export_references;
          Alcotest.test_case "allow attribute" `Quick test_unused_export_allow;
        ] );
      ("repo", [ Alcotest.test_case "repository lints clean" `Quick test_repo_clean ]);
    ]
