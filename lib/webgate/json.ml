type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printer --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
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
  Buffer.add_char buf '"'

(* %.0f / %.17g are deterministic functions of the double's bit pattern;
   %.17g round-trips every finite IEEE double exactly. *)
let print_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f [@detlint.allow float_format])
  else Buffer.add_string buf (Printf.sprintf "%.17g" f [@detlint.allow float_format])

let print v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> print_num buf f
    | Str s -> escape_string buf s
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let pretty v =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Num _ | Str _) as leaf -> Buffer.add_string buf (print leaf)
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          indent (depth + 1);
          go (depth + 1) item)
        items;
      Buffer.add_char buf '\n';
      indent depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          indent (depth + 1);
          escape_string buf k;
          Buffer.add_string buf ": ";
          go (depth + 1) v)
        fields;
      Buffer.add_char buf '\n';
      indent depth;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* --- parser --- *)

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> fail st (Printf.sprintf "expected %C, found %C" c d)
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  if
    st.pos + String.length word <= String.length st.src
    && String.sub st.src st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else fail st ("expected " ^ word)

let utf8_of_code buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> begin
      st.pos <- st.pos + 1;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        if st.pos + 4 >= String.length st.src then fail st "truncated \\u escape";
        let hex = String.sub st.src (st.pos + 1) 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code ->
          utf8_of_code buf code;
          st.pos <- st.pos + 4
        | None -> fail st "bad \\u escape")
      | Some c -> fail st (Printf.sprintf "bad escape \\%C" c)
      | None -> fail st "truncated escape");
      st.pos <- st.pos + 1;
      go ()
    end
    | Some c ->
      Buffer.add_char buf c;
      st.pos <- st.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while st.pos < String.length st.src && is_num_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some f -> f
  | None -> fail st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          items (v :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      Arr (items [])
    end
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let rec fields acc =
        let f = field () in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          fields (f :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          List.rev (f :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing content";
  v

(* --- accessors --- *)

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> raise Not_found)
  | _ -> raise (Parse_error ("not an object looking up " ^ key))

let member_opt key v = match member key v with v -> Some v | exception Not_found -> None

let to_string_exn = function Str s -> s | _ -> raise (Parse_error "expected string")
let to_float_exn = function Num f -> f | _ -> raise (Parse_error "expected number")
(* Integers are exact in a double only up to 2^53; anything fractional
   or beyond that is not an int the sender could have meant. *)
let to_int_exn v =
  let f = to_float_exn v in
  if Float.is_integer f && Float.abs f <= 0x1p53 then int_of_float f
  else raise (Parse_error "expected an integer")
let to_bool_exn = function Bool b -> b | _ -> raise (Parse_error "expected bool")

let of_bytes b = Str (Util.Hexdump.of_string b)

let bytes_exn v =
  match Util.Hexdump.to_string (to_string_exn v) with
  | b -> b
  | exception Invalid_argument _ -> raise (Parse_error "expected hex-armoured bytes")
