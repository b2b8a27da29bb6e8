type rule =
  | Hashtbl_order
  | Poly_compare
  | Physical_eq
  | Wall_clock
  | Ambient_rng
  | Marshal_obj
  | Float_format
  | Catch_all
  | Dispatch_catch_all
  | Tainted_sink
  | Unused_export
  | Toplevel_mutable

let rule_name = function
  | Hashtbl_order -> "hashtbl_order"
  | Poly_compare -> "poly_compare"
  | Physical_eq -> "physical_eq"
  | Wall_clock -> "wall_clock"
  | Ambient_rng -> "ambient_rng"
  | Marshal_obj -> "marshal_obj"
  | Float_format -> "float_format"
  | Catch_all -> "catch_all"
  | Dispatch_catch_all -> "dispatch_catch_all"
  | Tainted_sink -> "tainted_sink"
  | Unused_export -> "unused_export"
  | Toplevel_mutable -> "toplevel_mutable"

let all_rules =
  [
    Hashtbl_order;
    Poly_compare;
    Physical_eq;
    Wall_clock;
    Ambient_rng;
    Marshal_obj;
    Float_format;
    Catch_all;
    Dispatch_catch_all;
    Tainted_sink;
    Unused_export;
    Toplevel_mutable;
  ]

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  snippet : string;
  message : string;
  origin : (int * int) option;
}

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> String.compare (rule_name a.rule) (rule_name b.rule)
      | c -> c)
    | c -> c)
  | c -> c

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json f =
  let origin =
    match f.origin with
    | Some (l, c) -> Printf.sprintf {|,"src_line":%d,"src_col":%d|} l c
    | None -> ""
  in
  Printf.sprintf {|{"rule":"%s","file":"%s","line":%d,"col":%d,"snippet":"%s","message":"%s"%s}|}
    (rule_name f.rule) (json_escape f.file) f.line f.col (json_escape f.snippet)
    (json_escape f.message) origin

let to_human f =
  let origin =
    match f.origin with
    | Some (l, c) -> Printf.sprintf " (tainted at %s:%d:%d)" f.file l c
    | None -> ""
  in
  Printf.sprintf "%s:%d:%d: [%s] %s%s\n    %s" f.file f.line f.col (rule_name f.rule) f.message
    origin f.snippet
