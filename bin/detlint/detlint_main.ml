(* detlint: determinism & trust-boundary lint over the middleware.

   Exit codes: 0 clean, 1 findings, 2 usage or parse errors. *)

let usage () =
  prerr_endline
    "usage: detlint [--trust | --all] [--json] [-o FILE] [--root DIR] [--list-rules] \
     [DIR...]\n\n\
     Lints every .ml under DIR... (default: lib). The default pass checks\n\
     determinism and replay-safety, and flags every val in a .mli under\n\
     DIR... that no unit under lib, bin, bench, examples or benchmark\n\
     references (unused_export); --trust runs the taint pass proving\n\
     every wire-decode -> state-write flow crosses a cryptographic\n\
     sanitizer; --all runs both. --json emits one JSON object per finding.\n\
     Exemptions: [@detlint.allow <rule>] / [@trustlint.allow \"why\"]\n\
     attributes in source ([@@detlint.allow unused_export \"why\"] on a\n\
     val).";
  exit 2

let () =
  let json = ref false in
  let out_file = ref None in
  let root = ref "." in
  let dirs = ref [] in
  let passes = ref [ Detlint.Driver.Determinism ] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--trust" :: rest ->
      passes := [ Detlint.Driver.Trust ];
      parse rest
    | "--all" :: rest ->
      passes := [ Detlint.Driver.Determinism; Detlint.Driver.Trust ];
      parse rest
    | "-o" :: f :: rest ->
      out_file := Some f;
      parse rest
    | "--root" :: d :: rest ->
      root := d;
      parse rest
    | "--list-rules" :: _ ->
      List.iter (fun r -> print_endline (Detlint.Finding.rule_name r)) Detlint.Finding.all_rules;
      exit 0
    | ("--help" | "-h" | "-o" | "--root") :: _ -> usage ()
    | d :: rest when String.length d > 0 && d.[0] <> '-' ->
      dirs := d :: !dirs;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dirs = match List.rev !dirs with [] -> None | ds -> Some ds in
  let outcome = Detlint.Driver.run ~passes:!passes ?dirs ~root:!root () in
  let oc = match !out_file with Some f -> open_out f | None -> stdout in
  List.iter
    (fun f ->
      output_string oc
        ((if !json then Detlint.Finding.to_json f else Detlint.Finding.to_human f) ^ "\n"))
    outcome.findings;
  if !out_file <> None then close_out oc;
  List.iter (fun e -> Printf.eprintf "detlint: error: %s\n" e) outcome.errors;
  if outcome.errors <> [] then exit 2;
  if outcome.findings <> [] then begin
    Printf.eprintf "detlint: %d finding(s) in %d file(s) scanned\n"
      (List.length outcome.findings) outcome.files_scanned;
    exit 1
  end;
  if not !json then Printf.eprintf "detlint: clean — %d file(s) scanned\n" outcome.files_scanned
