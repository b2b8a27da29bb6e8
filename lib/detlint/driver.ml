let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_string ~filename src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf filename;
  Parse.implementation lexbuf

let lint_source ~rel src =
  let str = parse_string ~filename:rel src in
  let lines = Array.of_list (String.split_on_char '\n' src) in
  Rules.lint_structure ~rel ~lines str

let lint_trust_source ?(interfaces = []) ~rel src =
  let harvested =
    List.concat_map
      (fun (irel, isrc) ->
        Trust.harvest_interface ~rel:irel (Trust.parse_interface ~filename:irel isrc))
      interfaces
  in
  let str = parse_string ~filename:rel src in
  let lines = Array.of_list (String.split_on_char '\n' src) in
  Taint.lint_structure ~rel ~lines ~specs:(harvested @ Trust.conventions) str

(* Deterministic directory walk: sorted entries, dotfiles and build
   artefacts skipped. *)
let rec walk ~ext dir acc =
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      if String.length name = 0 || name.[0] = '.' || String.equal name "_build" then acc
      else
        let path = Filename.concat dir name in
        if Sys.is_directory path then walk ~ext path acc
        else if Filename.check_suffix name ext then path :: acc
        else acc)
    acc entries

type pass = Determinism | Trust

type outcome = {
  files_scanned : int;
  findings : Finding.t list;
  errors : string list;
}

let relativize ~root path =
  let root = if Filename.check_suffix root "/" then root else root ^ "/" in
  let rel =
    if String.length path > String.length root && String.starts_with ~prefix:root path then
      String.sub path (String.length root) (String.length path - String.length root)
    else path
  in
  String.concat "/" (String.split_on_char Filename.dir_sep.[0] rel)

let collect ~ext ~root dirs =
  List.concat_map
    (fun d ->
      let dir = Filename.concat root d in
      if Sys.file_exists dir && Sys.is_directory dir then List.rev (walk ~ext dir []) else [])
    dirs
  |> List.sort String.compare

(* Parse one file; a syntax error is recorded in [errors] and skipped. *)
let parse_file ~root ~errors parse path =
  let rel = relativize ~root path in
  let src = read_file path in
  match parse ~filename:rel src with
  | ast -> Some (rel, src, ast)
  | exception exn -> (
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
      errors := Format.asprintf "%s: %a" rel Location.print_report report :: !errors;
      None
    | Some `Already_displayed | None -> raise exn)

let lines_of src = Array.of_list (String.split_on_char '\n' src)

let run ?(passes = [ Determinism ]) ?(dirs = [ "lib" ]) ~root () =
  let files = collect ~ext:".ml" ~root dirs in
  let errors = ref [] in
  let interfaces =
    List.filter_map (parse_file ~root ~errors Trust.parse_interface) (collect ~ext:".mli" ~root dirs)
  in
  let sources = List.filter_map (parse_file ~root ~errors parse_string) files in
  (* The trust pass's declaration layer: [@@trust.*] attributes harvested
     off every interface under the scanned dirs, plus the convention
     table. *)
  let specs =
    (if List.mem Trust passes then
       List.concat_map (fun (rel, _, sg) -> Trust.harvest_interface ~rel sg) interfaces
     else [])
    @ Trust.conventions
  in
  let per_file =
    List.concat_map
      (fun (rel, src, str) ->
        let lines = lines_of src in
        List.concat_map
          (function
            | Determinism -> Rules.lint_structure ~rel ~lines str
            | Trust -> Taint.lint_structure ~rel ~lines ~specs str)
          passes)
      sources
  in
  (* unused_export reads every consumer unit, whatever [dirs] is; the
     scanned sources are parsed once. *)
  let exports =
    if not (List.mem Determinism passes) then []
    else
      let units =
        List.map (fun (rel, _, str) -> (rel, str)) sources
        @ List.filter_map
            (fun path ->
              if List.mem path files then None
              else
                Option.map (fun (rel, _, str) -> (rel, str))
                  (parse_file ~root ~errors parse_string path))
            (collect ~ext:".ml" ~root Exports.consumer_dirs)
      in
      Exports.lint
        ~interfaces:(List.map (fun (rel, src, sg) -> (rel, lines_of src, sg)) interfaces)
        ~units
  in
  {
    files_scanned = List.length files;
    findings = List.sort Finding.compare (per_file @ exports);
    errors = List.rev !errors;
  }
