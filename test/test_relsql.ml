(* Tests for the embedded relational engine: storage layers, SQL language
   behaviour, transactions and crash recovery. *)

open Relsql

let qcheck = QCheck_alcotest.to_alcotest

let fresh_db ?(acid = true) ?(seed = 1) () = Database.open_db (Vfs.in_memory ~acid ~seed ())

let exec db sql = Database.exec_exn db sql

let rows_as_strings (r : Database.result) =
  List.map (fun row -> String.concat "|" (List.map Value.to_string (Array.to_list row))) r.rows

let check_rows msg db sql expected =
  Alcotest.(check (list string)) msg expected (rows_as_strings (exec db sql))

let expect_error db sql =
  match (Database.exec db sql).Database.res with
  | Ok _ -> Alcotest.failf "expected error for: %s" sql
  | Error e -> e

(* --- lexer --- *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "SELECT a, 'it''s' FROM t WHERE x >= 4.5 -- comment\n" in
  Alcotest.(check int) "token count" 11 (List.length toks);
  (match toks with
  | Lexer.Ident "SELECT" :: Lexer.Ident "a" :: Lexer.Punct "," :: Lexer.String_lit s :: _ ->
    Alcotest.(check string) "escaped quote" "it's" s
  | _ -> Alcotest.fail "unexpected tokens");
  Alcotest.check_raises "unterminated" (Lexer.Error "unterminated string literal") (fun () ->
      ignore (Lexer.tokenize "'oops"))

let test_lexer_operators () =
  let ops s = List.filter_map (function Lexer.Punct p -> Some p | _ -> None) (Lexer.tokenize s) in
  Alcotest.(check (list string)) "two-char ops" [ "<>"; "<="; ">="; "||"; "<>" ]
    (ops "<> <= >= || !=")

let test_lexer_block_comment () =
  let toks = Lexer.tokenize "SELECT /* a\n   multi-line\n   comment */ 1 /**/ + 2" in
  (* SELECT, 1, +, 2, Eof — both comments skipped. *)
  Alcotest.(check int) "comments skipped" 5 (List.length toks);
  (* '/' alone is still the division operator. *)
  let toks2 = Lexer.tokenize "4 / 2" in
  Alcotest.(check int) "division untouched" 4 (List.length toks2);
  Alcotest.check_raises "unterminated" (Lexer.Error "unterminated block comment") (fun () ->
      ignore (Lexer.tokenize "SELECT /* oops"))

(* --- parser --- *)

let test_parser_select () =
  match Parser.parse_one "SELECT a, b AS bee FROM t WHERE a = 1 ORDER BY b DESC LIMIT 3" with
  | Ast.Select s ->
    Alcotest.(check int) "projections" 2 (List.length s.Ast.sel_exprs);
    Alcotest.(check bool) "has where" true (s.Ast.sel_where <> None);
    Alcotest.(check int) "order items" 1 (List.length s.Ast.sel_order);
    Alcotest.(check (option int)) "limit" (Some 3) s.Ast.sel_limit
  | _ -> Alcotest.fail "not a select"

let test_parser_create () =
  match Parser.parse_one "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL)" with
  | Ast.Create_table { ct_cols; _ } ->
    Alcotest.(check int) "columns" 3 (List.length ct_cols);
    Alcotest.(check bool) "pk flag" true (List.hd ct_cols).Ast.col_pk
  | _ -> Alcotest.fail "not a create"

let test_parser_errors () =
  List.iter
    (fun sql ->
      match Parser.parse sql with
      | exception Parser.Error _ -> ()
      | exception Lexer.Error _ -> ()
      | _ -> Alcotest.failf "expected parse error: %s" sql)
    [ "SELEC 1"; "SELECT FROM"; "INSERT t VALUES (1)"; "CREATE TABLE t"; "SELECT 1 WHERE" ]

let test_parser_multi_statement () =
  Alcotest.(check int) "two statements" 2 (List.length (Parser.parse "SELECT 1; SELECT 2;"))

let test_parser_precedence () =
  (* 1 + 2 * 3 = 7 and NOT binds looser than comparison *)
  let db = fresh_db () in
  check_rows "arith precedence" db "SELECT 1 + 2 * 3" [ "7" ];
  check_rows "unary minus" db "SELECT -(2) + 5" [ "3" ];
  check_rows "not" db "SELECT NOT 1 = 2" [ "1" ]

(* --- values --- *)

let test_value_compare () =
  let open Value in
  Alcotest.(check bool) "null smallest" true (compare_sql Null (Int (-100)) < 0);
  Alcotest.(check bool) "int vs real" true (compare_sql (Int 2) (Real 2.5) < 0);
  Alcotest.(check bool) "numeric equal" true (compare_sql (Int 2) (Real 2.0) = 0);
  Alcotest.(check bool) "numbers before text" true (compare_sql (Int 999) (Text "a") < 0)

let prop_key_encode_order =
  QCheck.Test.make ~name:"key_encode preserves int order" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
      let ka = Value.key_encode (Value.Int a) and kb = Value.key_encode (Value.Int b) in
      compare a b = compare ka kb)

let prop_value_codec_roundtrip =
  QCheck.Test.make ~name:"value codec roundtrip" ~count:500
    QCheck.(oneof [ map (fun i -> Value.Int i) int;
                    map (fun f -> Value.Real f) float;
                    map (fun s -> Value.Text s) string;
                    always Value.Null ])
    (fun v ->
      let v' = Util.Codec.decode Value.decode (Util.Codec.encode Value.encode v) in
      match (v, v') with
      | Value.Real a, Value.Real b -> Float.equal a b
      | _ -> Value.equal v v')

(* --- btree --- *)

let with_tree f =
  let vfs = Vfs.in_memory ~seed:1 () in
  let pager = Pager.open_pager vfs in
  Pager.begin_txn pager;
  let tree = Btree.create pager in
  let r = f pager tree in
  Pager.commit pager;
  r

let test_btree_basic () =
  with_tree (fun _ tree ->
      Btree.insert tree ~key:"b" ~value:"2";
      Btree.insert tree ~key:"a" ~value:"1";
      Btree.insert tree ~key:"c" ~value:"3";
      Alcotest.(check (option string)) "find a" (Some "1") (Btree.find tree "a");
      Alcotest.(check (option string)) "find missing" None (Btree.find tree "zz");
      Btree.insert tree ~key:"a" ~value:"1'";
      Alcotest.(check (option string)) "replace" (Some "1'") (Btree.find tree "a");
      Alcotest.(check bool) "delete" true (Btree.delete tree "b");
      Alcotest.(check bool) "delete missing" false (Btree.delete tree "b");
      Alcotest.(check int) "count" 2 (Btree.count tree))

let test_btree_many_and_order () =
  with_tree (fun _ tree ->
      let n = 2000 in
      for i = n downto 1 do
        Btree.insert tree ~key:(Printf.sprintf "k%06d" i) ~value:(string_of_int i)
      done;
      Alcotest.(check int) "count" n (Btree.count tree);
      let prev = ref "" in
      Btree.iter tree (fun k _ ->
          if String.compare k !prev <= 0 then Alcotest.fail "iteration out of order";
          prev := k;
          true);
      (* Range scan from the middle. *)
      let seen = ref 0 in
      Btree.iter tree ~from:"k001500" (fun _ _ ->
          incr seen;
          true);
      Alcotest.(check int) "range scan" 501 !seen)

let test_btree_iter_upto () =
  with_tree (fun _ tree ->
      for i = 1 to 300 do
        Btree.insert tree ~key:(Printf.sprintf "k%04d" i) ~value:""
      done;
      let seen = ref [] in
      Btree.iter tree ~from:"k0100" ~upto:"k0110" (fun k _ ->
          seen := k :: !seen;
          true);
      Alcotest.(check int) "inclusive window" 11 (List.length !seen);
      (match !seen with
      | last :: _ -> Alcotest.(check string) "upper bound inclusive" "k0110" last
      | [] -> Alcotest.fail "empty window");
      let n = ref 0 in
      Btree.iter tree ~upto:"k0005" (fun _ _ ->
          incr n;
          true);
      Alcotest.(check int) "upto from the start" 5 !n;
      (* A bound below every key visits nothing. *)
      Btree.iter tree ~upto:"a" (fun _ _ -> Alcotest.fail "visited past upto");
      (* Delete a whole leaf's worth of keys: iteration skips the
         lazily-emptied leaves without visiting stale entries. *)
      for i = 50 to 250 do
        ignore (Btree.delete tree (Printf.sprintf "k%04d" i))
      done;
      let m = ref 0 in
      Btree.iter tree ~from:"k0040" ~upto:"k0260" (fun _ _ ->
          incr m;
          true);
      Alcotest.(check int) "emptied range skipped" 20 !m)

let prop_btree_vs_map =
  QCheck.Test.make ~name:"btree matches Map reference" ~count:60
    QCheck.(small_list (pair (string_of_size (Gen.return 6)) (option (string_of_size (Gen.int_bound 200)))))
    (fun ops ->
      with_tree (fun _ tree ->
          let reference = Hashtbl.create 16 in
          List.iter
            (fun (k, op) ->
              match op with
              | Some v ->
                Btree.insert tree ~key:k ~value:v;
                Hashtbl.replace reference k v
              | None ->
                ignore (Btree.delete tree k);
                Hashtbl.remove reference k)
            ops;
          Hashtbl.fold (fun k v acc -> acc && Btree.find tree k = Some v) reference true
          && Btree.count tree = Hashtbl.length reference))

(* --- leaf images: the documented encoding, byte for byte --- *)

module Smap = Map.Make (String)

(* Btree's max_node_bytes: a node whose encoding is longer splits. *)
let max_node_bytes = Pager.page_size - 256

(* The node layouts of btree.ml's header comment, written with
   Util.Codec and zero-padded to a page. *)
let leaf_encoding ?(next = 0) entries =
  let w = Util.Codec.W.create () in
  Util.Codec.W.u8 w 0;
  Util.Codec.W.u32 w next;
  Util.Codec.W.varint w (List.length entries);
  List.iter
    (fun (k, v) ->
      Util.Codec.W.lstring w k;
      Util.Codec.W.lstring w v)
    entries;
  w

let leaf_oracle ?next entries =
  Util.Codec.W.contents_padded (leaf_encoding ?next entries) Pager.page_size

let interior_oracle seps children =
  let w = Util.Codec.W.create () in
  Util.Codec.W.u8 w 1;
  Util.Codec.W.list w Util.Codec.W.lstring seps;
  Util.Codec.W.list w Util.Codec.W.varint children;
  Util.Codec.W.contents_padded w Pager.page_size

type leaf_op = Put of string * string | Del of string

let print_leaf_ops ops =
  String.concat "; "
    (List.map
       (function
         | Put (k, v) -> Printf.sprintf "put %S(%d) %d" (String.sub k 0 (min 4 (String.length k)))
                           (String.length k) (String.length v)
         | Del k -> Printf.sprintf "del %S(%d)" (String.sub k 0 (min 4 (String.length k)))
                      (String.length k))
       ops)

(* Apply [ops] to a one-leaf tree and compare the leaf with the oracle
   after each; a put that would overflow the leaf is skipped. *)
let leaf_matches_oracle ops =
  with_tree (fun pager tree ->
      let leaf = Btree.root tree in
      let model = ref Smap.empty in
      List.for_all
        (fun op ->
          let next =
            match op with Put (k, v) -> Smap.add k v !model | Del k -> Smap.remove k !model
          in
          Util.Codec.W.length (leaf_encoding (Smap.bindings next)) > max_node_bytes
          ||
          let applied =
            match op with
            | Put (key, value) ->
              Btree.insert tree ~key ~value;
              true
            | Del k -> Bool.equal (Btree.delete tree k) (Smap.mem k !model)
          in
          model := next;
          applied
          && Int.equal (Btree.root tree) leaf
          && String.equal (Pager.read_page pager leaf) (leaf_oracle (Smap.bindings next)))
        ops)

let leaf_op_gen =
  let open QCheck.Gen in
  let sized lens = string_size ~gen:(char_range 'a' 'c') (oneofl lens) in
  let key = frequency [ (8, map (Printf.sprintf "k%03d") (int_bound 300)); (1, sized [ 0; 127; 128 ]) ] in
  let value = frequency [ (8, sized [ 0; 1; 2; 3 ]); (1, sized [ 127; 128 ]) ] in
  frequency [ (4, map2 (fun k v -> Put (k, v)) key value); (1, map (fun k -> Del k) key) ]

let prop_leaf_image =
  QCheck.Test.make ~name:"one-leaf inserts, replaces and deletes match the encoding" ~count:100
    (QCheck.make ~print:print_leaf_ops QCheck.Gen.(list_size (int_range 0 300) leaf_op_gen))
    leaf_matches_oracle

(* The count varint grows to two bytes at 128 entries and back at 127;
   lengths 127 and 128 are the one- and two-byte varint edges. *)
let test_leaf_image_varint_edges () =
  let puts = List.init 128 (fun i -> Put (Printf.sprintf "%03d" i, "")) in
  let long n c = String.make n c in
  let ops =
    puts
    @ [ Del "064"; Put ("064", "x"); Put (long 127 'a', long 128 'b'); Put (long 128 'c', long 127 'd');
        Put (long 127 'a', long 127 'e'); Del (long 128 'c'); Del (long 127 'a') ]
  in
  Alcotest.(check bool) "every step matches the oracle" true (leaf_matches_oracle ops)

(* Two entries of a 10-byte key and a 1,904-byte value encode to exactly
   max_node_bytes (5 + 1 + 2 x (11 + 2 + 1904)): no split. One byte more
   splits, into the next fresh page, under a new root; a second split
   adds its separator to that root in place. *)
let test_leaf_split_boundary () =
  let k1 = String.make 10 'a' and k2 = String.make 10 'b' and k3 = String.make 10 'c' in
  let v = String.make 1904 'v' in
  let v' = v ^ "w" in
  Alcotest.(check int) "exact fit" max_node_bytes
    (Util.Codec.W.length (leaf_encoding [ (k1, v); (k2, v) ]));
  with_tree (fun pager tree ->
      let leaf = Btree.root tree in
      let page = Pager.read_page pager in
      Btree.insert tree ~key:k1 ~value:v;
      Btree.insert tree ~key:k2 ~value:v;
      Alcotest.(check int) "no split at max_node_bytes" leaf (Btree.root tree);
      Alcotest.(check string) "full leaf" (leaf_oracle [ (k1, v); (k2, v) ]) (page leaf);
      let right = Pager.page_count pager in
      Btree.insert tree ~key:k2 ~value:v';
      Alcotest.(check int) "new root" (right + 1) (Btree.root tree);
      Alcotest.(check string) "left half" (leaf_oracle ~next:right [ (k1, v) ]) (page leaf);
      Alcotest.(check string) "right half" (leaf_oracle [ (k2, v') ]) (page right);
      Alcotest.(check string) "root" (interior_oracle [ k2 ] [ leaf; right ]) (page (right + 1));
      let right2 = Pager.page_count pager in
      Btree.insert tree ~key:k3 ~value:v;
      Alcotest.(check string) "second right half" (leaf_oracle [ (k3, v) ]) (page right2);
      Alcotest.(check string) "separator added in place"
        (interior_oracle [ k2; k3 ] [ leaf; right; right2 ])
        (page (right + 1)))

let test_btree_entry_too_large () =
  with_tree (fun _ tree ->
      Alcotest.check_raises "oversized entry"
        (Invalid_argument "Btree.insert: entry too large (no overflow pages)") (fun () ->
          Btree.insert tree ~key:"k" ~value:(String.make 4000 'x')))

(* Four small entries then three near-maximal ones: splitting the leaf
   by entry count would put one small entry and all three big ones on a
   single page, past its size. The split moves to where both halves fit. *)
let test_btree_skewed_split () =
  with_tree (fun _ tree ->
      let entries =
        List.init 4 (fun i -> (Printf.sprintf "a%d" i, String.make 10 's'))
        @ List.init 3 (fun i -> (Printf.sprintf "z%d" i, String.make 1850 'b'))
      in
      List.iter (fun (key, value) -> Btree.insert tree ~key ~value) entries;
      List.iter
        (fun (k, v) -> Alcotest.(check (option string)) k (Some v) (Btree.find tree k))
        entries;
      Alcotest.(check int) "count" 7 (Btree.count tree))

let test_btree_persistence () =
  let vfs = Vfs.in_memory ~seed:1 () in
  let root =
    let pager = Pager.open_pager vfs in
    Pager.begin_txn pager;
    let tree = Btree.create pager in
    for i = 1 to 500 do
      Btree.insert tree ~key:(Printf.sprintf "%05d" i) ~value:(string_of_int (i * i))
    done;
    Pager.commit pager;
    Btree.root tree
  in
  (* Reopen through a fresh pager over the same file. *)
  let pager = Pager.open_pager vfs in
  let tree = Btree.open_tree pager ~root in
  Alcotest.(check (option string)) "survives reopen" (Some "144") (Btree.find tree "00012");
  Alcotest.(check int) "count survives" 500 (Btree.count tree)

(* --- in-place probe vs a decode-based reference --- *)

(* A VFS whose main file is a Pages region, lending whole pages as views
   the way the replicated service does — so the probe reads live buffers. *)
let region_vfs ?acid pages =
  let ps = Statemgr.Pages.page_size pages in
  let read ~pos ~len = Statemgr.Pages.read pages ~pos ~len in
  let heap = Vfs.in_memory ?acid ~seed:1 () in
  {
    heap with
    Vfs.main =
      {
        Vfs.read;
        view =
          (fun ~pos ~len ->
            if len = ps && pos mod ps = 0 then Statemgr.Pages.page_view pages (pos / ps)
            else read ~pos ~len);
        write =
          (fun ~pos s ->
            Statemgr.Pages.notify_modify pages ~pos ~len:(String.length s);
            Statemgr.Pages.write pages ~pos s);
        sync = (fun () -> ());
        size = (fun () -> Statemgr.Pages.total_size pages);
        truncate = (fun _ -> ());
      };
  }

(* The node format decoded with Util.Codec over copied page images, and
   the lookup and range walk written the straightforward way. *)
type ref_node = Ref_leaf of (string * string) list * int | Ref_interior of string list * int list

let ref_node pager page =
  let open Util.Codec.R in
  let r = of_string (Pager.read_page pager page) in
  match u8 r with
  | 0 ->
    let next = u32 r in
    let entries =
      list r (fun r ->
          let k = lstring r in
          let v = lstring r in
          (k, v))
    in
    Ref_leaf (entries, next)
  | _ ->
    let seps = list r lstring in
    Ref_interior (seps, list r varint)

let ref_child seps key = List.length (List.filter (fun s -> String.compare s key <= 0) seps)

let rec ref_find pager page key =
  match ref_node pager page with
  | Ref_leaf (entries, _) -> List.assoc_opt key entries
  | Ref_interior (seps, children) -> ref_find pager (List.nth children (ref_child seps key)) key

let rec ref_depth pager page =
  match ref_node pager page with
  | Ref_leaf _ -> 1
  | Ref_interior (_, children) -> 1 + ref_depth pager (List.hd children)

let in_bounds ~from ~upto k =
  (match from with Some lo -> String.compare k lo >= 0 | None -> true)
  && match upto with Some hi -> String.compare k hi <= 0 | None -> true

let ref_range pager root ~from ~upto =
  let rec leaf page =
    match ref_node pager page with
    | Ref_leaf _ -> page
    | Ref_interior (seps, children) ->
      let i = match from with None -> 0 | Some k -> ref_child seps k in
      leaf (List.nth children i)
  in
  let rec walk page acc =
    if page = 0 then List.rev acc
    else
      match ref_node pager page with
      | Ref_interior _ -> Alcotest.fail "reference: interior node on the leaf chain"
      | Ref_leaf (entries, next) ->
        let inside = List.filter (fun (k, _) -> in_bounds ~from ~upto k) entries in
        let beyond = List.exists (fun (k, _) -> not (in_bounds ~from:None ~upto k)) entries in
        let acc = List.rev_append inside acc in
        if beyond then List.rev acc else walk next acc
  in
  walk (leaf root) []

let iter_range tree ~from ~upto =
  let acc = ref [] in
  Btree.iter tree ?from ?upto (fun k v ->
      acc := (k, v) :: !acc;
      true);
  List.rev !acc

(* Keys built to stress the in-place comparison: shared prefixes, the
   empty key, NUL and 0xff bytes, and keys of 128+ bytes whose length
   needs a multi-byte varint (which also makes trees 2-3 levels deep). *)
let adversarial_key =
  QCheck.Gen.(
    map2 ( ^ )
      (oneofl
         [ ""; "a"; "ab"; "\000"; "\255"; "\000\255"; String.make 130 'p'; String.make 300 '\255';
           String.make 600 'q' ])
      (string_size
         ~gen:(oneofl [ '\000'; '\001'; 'a'; 'b'; '\127'; '\128'; '\255' ])
         (int_range 0 4)))

type probe_case = {
  inserts : (string * string) list;
  deletes : string list;
  probes : string list;
  ranges : (string option * string option) list;
}

let probe_case_gen =
  QCheck.Gen.(
    let value = string_size ~gen:(oneofl [ '\000'; 'v'; '\255' ]) (int_range 0 300) in
    list_size (int_range 1 60) (pair adversarial_key value) >>= fun inserts ->
    let keys = List.map fst inserts in
    let some_key = if keys = [] then adversarial_key else oneof [ oneofl keys; adversarial_key ] in
    list_size (int_range 0 20) some_key >>= fun deletes ->
    list_size (int_range 1 20) some_key >>= fun probes ->
    list_size (int_range 1 6) (pair (opt some_key) (opt some_key)) >>= fun ranges ->
    return { inserts; deletes; probes; ranges })

let print_probe_case c =
  Printf.sprintf "%d inserts, %d deletes, probes %s" (List.length c.inserts)
    (List.length c.deletes)
    (String.concat "," (List.map String.escaped c.probes))

(* Build the case's tree in a fresh region; returns the pager, tree and
   the Map model of its contents. *)
let build_probe_tree c =
  let pages = Statemgr.Pages.create ~page_size:Pager.page_size ~num_pages:512 () in
  let pager = Pager.open_pager (region_vfs pages) in
  Pager.begin_txn pager;
  let tree = Btree.create pager in
  let module M = Map.Make (String) in
  let insert m (k, v) =
    Btree.insert tree ~key:k ~value:v;
    M.add k v m
  in
  let delete m k =
    ignore (Btree.delete tree k);
    M.remove k m
  in
  let model = List.fold_left delete (List.fold_left insert M.empty c.inserts) c.deletes in
  Pager.commit pager;
  (pages, pager, tree, M.bindings model)

let prop_probe_matches_reference =
  QCheck.Test.make ~name:"in-place probe matches decode-based reference" ~count:150
    (QCheck.make ~print:print_probe_case probe_case_gen)
    (fun c ->
      let _, pager, tree, model = build_probe_tree c in
      let root = Btree.root tree in
      List.for_all
        (fun k ->
          let got = Btree.find tree k in
          got = ref_find pager root k && got = List.assoc_opt k model)
        (c.probes @ List.map fst c.inserts)
      && List.for_all
           (fun (from, upto) ->
             let got = iter_range tree ~from ~upto in
             let expect = List.filter (fun (k, _) -> in_bounds ~from ~upto k) model in
             got = ref_range pager root ~from ~upto && got = expect)
           ((None, None) :: c.ranges))

(* A case's probes and inserted keys, sorted: present and absent keys. *)
let batch_keys c = List.sort_uniq String.compare (c.probes @ List.map fst c.inserts)

let find_many_list tree keys =
  let acc = ref [] in
  Btree.find_many tree keys (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

(* The batched lookup answers every key exactly as [find] does, in key
   order, touches the same pages as the per-key lookups, and rejects
   unsorted or repeated keys before looking anything up. *)
let prop_find_many_matches_find =
  QCheck.Test.make ~name:"find_many matches per-key find, pages included" ~count:150
    (QCheck.make ~print:print_probe_case probe_case_gen)
    (fun c ->
      let _, pager, tree, _ = build_probe_tree c in
      let keys = batch_keys c in
      ignore (Pager.take_pages_touched pager);
      let got = find_many_list tree keys in
      let batched_pages = Pager.take_pages_touched pager in
      let expect = List.map (fun k -> (k, Btree.find tree k)) keys in
      let per_key_pages = Pager.take_pages_touched pager in
      let rejected ks =
        match Btree.find_many tree ks (fun _ _ -> Alcotest.fail "lookup before the key check") with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      let misordered =
        match keys with
        | a :: b :: rest -> [ b :: a :: rest; keys @ [ List.nth keys (List.length keys - 1) ] ]
        | [ a ] -> [ [ a; a ] ]
        | [] -> []
      in
      got = expect && batched_pages = per_key_pages && List.for_all rejected misordered)

(* The generator's long keys really do reach three levels. *)
let test_probe_three_levels () =
  let c =
    {
      inserts =
        List.init 24 (fun i -> (Printf.sprintf "%s%03d" (String.make 600 'q') i, String.make 200 'v'));
      deletes = [];
      probes = [];
      ranges = [];
    }
  in
  let _, pager, tree, model = build_probe_tree c in
  Alcotest.(check int) "depth" 3 (ref_depth pager (Btree.root tree));
  List.iter
    (fun (k, v) -> Alcotest.(check (option string)) "find" (Some v) (Btree.find tree k))
    model;
  Alcotest.(check (list (pair string (option string))))
    "find_many"
    (List.map (fun (k, v) -> (k, Some v)) model)
    (find_many_list tree (List.map fst model));
  Alcotest.(check int) "iter" 24 (List.length (iter_range tree ~from:None ~upto:None))

(* The tree as seen through a VFS that replaces page [victim]'s image by
   [mangle image] on every read and view. *)
let tampered_tree pages tree ~victim mangle =
  let base = region_vfs pages in
  let at_victim f ~pos ~len =
    if pos = victim * Pager.page_size then mangle (f ~pos ~len) else f ~pos ~len
  in
  let main =
    { base.Vfs.main with read = at_victim base.Vfs.main.read; view = at_victim base.Vfs.main.view }
  in
  Btree.open_tree (Pager.open_pager { base with Vfs.main }) ~root:(Btree.root tree)

(* Corrupt images: one page of a small tree is truncated or has one byte
   replaced; find and iter may return anything but must fail only with
   Pager.Corrupt. *)
let prop_probe_corrupt_images =
  QCheck.Test.make ~name:"corrupt node images raise only Pager.Corrupt" ~count:300
    (QCheck.make ~print:(fun (c, _, _, _) -> print_probe_case c)
       QCheck.Gen.(
         quad probe_case_gen (int_bound 1000) (int_bound 4200)
           (oneofl
              [
                `Truncate; `Byte ' '; `Byte '\000'; `Byte '\001'; `Byte '\127'; `Byte '\128';
                `Byte '\255';
              ])))
    (fun (c, pick, at, how) ->
      let pages, pager, tree, _ = build_probe_tree c in
      let victim = 1 + (pick mod (Pager.page_count pager - 1)) in
      let mangle img =
        match how with
        | `Truncate -> String.sub img 0 (at mod String.length img)
        | `Byte b ->
          (* Most of a page is padding: aim at the encoded prefix. *)
          let i = at mod 600 in
          String.mapi (fun j ch -> if j = i then b else ch) img
      in
      let tree' = tampered_tree pages tree ~victim mangle in
      let safely f = try ignore (f ()) with Pager.Corrupt _ -> () in
      List.iter
        (fun k -> safely (fun () -> Btree.find tree' k))
        (c.probes @ List.map fst c.inserts);
      safely (fun () -> find_many_list tree' (batch_keys c));
      List.iter
        (fun (from, upto) -> safely (fun () -> iter_range tree' ~from ~upto))
        ((None, None) :: c.ranges);
      true)

(* Cycles a corrupt image can create end in Pager.Corrupt, not a hang: a
   leaf replaced by its interior parent (the descent loops back), and a
   leaf whose successor is replaced by itself (the chain loops). *)
let test_probe_cycles_raise_corrupt () =
  let c =
    {
      inserts = List.init 12 (fun i -> (Printf.sprintf "%s%03d" (String.make 600 'q') i, "v"));
      deletes = [];
      probes = [];
      ranges = [];
    }
  in
  let pages, pager, tree, model = build_probe_tree c in
  let root = Btree.root tree in
  Alcotest.(check int) "depth" 2 (ref_depth pager root);
  let first, second =
    match ref_node pager root with
    | Ref_interior (_, a :: b :: _) -> (a, b)
    | _ -> Alcotest.fail "expected a two-level tree"
  in
  let expect_corrupt name f =
    match f () with
    | _ -> Alcotest.failf "%s: no Pager.Corrupt" name
    | exception Pager.Corrupt _ -> ()
  in
  let looped = tampered_tree pages tree ~victim:first (fun _ -> Pager.read_page pager root) in
  expect_corrupt "find" (fun () -> Btree.find looped (fst (List.hd model)));
  expect_corrupt "find_many" (fun () -> find_many_list looped (List.map fst model));
  expect_corrupt "iter" (fun () -> iter_range looped ~from:None ~upto:None);
  let self_chain = tampered_tree pages tree ~victim:second (fun _ -> Pager.read_page pager first) in
  expect_corrupt "chain" (fun () -> iter_range self_chain ~from:None ~upto:None)

(* [iter]'s callback may write the tree. The scan walks a one-leaf tree
   in a region, where the leaf is a borrowed live page, and each of its
   first callbacks inserts a big entry just above [upto]; the fourth
   splits the leaf being walked, moving the rest of the range to a new
   right page. The scan still yields exactly the entries in range before
   it started. *)
let test_iter_callback_splits_leaf () =
  let c =
    {
      inserts =
        List.init 20 (fun i -> (Printf.sprintf "a%02d" i, "small"))
        @ List.init 10 (fun i -> (Printf.sprintf "c%02d" i, "small"));
      deletes = [];
      probes = [];
      ranges = [];
    }
  in
  let _, pager, tree, model = build_probe_tree c in
  Alcotest.(check int) "one leaf" 1 (ref_depth pager (Btree.root tree));
  let from = Some "a05" and upto = Some "a19" in
  let before = List.filter (fun (k, _) -> in_bounds ~from ~upto k) model in
  let seen = ref [] in
  Pager.begin_txn pager;
  Btree.iter tree ?from ?upto (fun k v ->
      seen := (k, v) :: !seen;
      if List.length !seen <= 4 then
        Btree.insert tree
          ~key:(Printf.sprintf "b%02d" (List.length !seen))
          ~value:(String.make 900 'w');
      true);
  Pager.commit pager;
  Alcotest.(check int) "the leaf split" 2 (ref_depth pager (Btree.root tree));
  Alcotest.(check (list (pair string string))) "yields the pre-scan entries" before (List.rev !seen);
  Alcotest.(check int) "every insert landed" 34 (Btree.count tree)

(* --- page views never leak into stored images --- *)

let region () = Statemgr.Pages.create ~page_size:Pager.page_size ~num_pages:256 ()
let region_root pages = Statemgr.Merkle.root (Statemgr.Merkle.build pages)

let fill_indexed db =
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, pad TEXT)");
  ignore (exec db "CREATE INDEX t_k ON t(k)");
  let pad = String.make 100 'x' in
  for batch = 0 to 3 do
    let rows =
      List.init 100 (fun i ->
          let id = (batch * 100) + i + 1 in
          Printf.sprintf "(%d, %d, '%s')" id (401 - id) pad)
    in
    ignore (exec db ("INSERT INTO t (id, k, pad) VALUES " ^ String.concat ", " rows))
  done

(* An index-scan UPDATE that moves the indexed column and an index-scan
   DELETE rewrite pages the probe has just read; they must leave the same
   rows and the same region bytes as the forced-scan executor. *)
let test_index_dml_matches_forced_scan () =
  let run ~planner =
    let pages = region () in
    let db = Database.open_db (region_vfs pages) in
    fill_indexed db;
    Database.set_planner_enabled db planner;
    let dml sql =
      let o = Database.exec db sql in
      match o.Database.res with
      | Ok r -> (r.Database.affected, o.Database.rows_scanned)
      | Error e -> Alcotest.failf "%s: %s" sql e
    in
    let update = dml "UPDATE t SET k = k + 1000 WHERE k >= 50 AND k < 120" in
    let delete = dml "DELETE FROM t WHERE k >= 1060 AND k < 1080" in
    Database.set_planner_enabled db true;
    let rows = rows_as_strings (exec db "SELECT id, k, pad FROM t ORDER BY k") in
    (update, delete, rows, region_root pages)
  in
  let (u, us), (d, ds), rows, root = run ~planner:true in
  let (u', us'), (d', ds'), rows', root' = run ~planner:false in
  Alcotest.(check (pair int int)) "affected" (u', d') (u, d);
  Alcotest.(check (pair int int)) "70 updated, 20 deleted" (70, 20) (u, d);
  Alcotest.(check bool) "the planned run used the index" true (us < us' && ds < ds');
  Alcotest.(check (list string)) "rows" rows' rows;
  Alcotest.(check string) "region Merkle root" root' root

(* ROLLBACK writes back the journal's original images; had they been
   views of the live pages, the writes would have changed them too. *)
let test_rollback_restores_region () =
  let pages = region () in
  let db = Database.open_db (region_vfs pages) in
  fill_indexed db;
  let n = Statemgr.Pages.num_pages pages in
  let before = List.init n (Statemgr.Pages.page pages) in
  let root0 = region_root pages in
  Statemgr.Pages.clear_dirty pages;
  ignore (exec db "BEGIN");
  ignore (exec db "UPDATE t SET pad = 'changed' WHERE k < 150");
  ignore (exec db "DELETE FROM t WHERE k >= 300");
  ignore
    (exec db
       ("INSERT INTO t (id, k, pad) VALUES "
       ^ String.concat ", "
           (List.init 60 (fun i ->
                Printf.sprintf "(%d, %d, '%s')" (1000 + i) i (String.make 90 'y')))));
  let written = List.length (Statemgr.Pages.dirty pages) in
  if written < 5 then Alcotest.failf "only %d pages written inside the transaction" written;
  ignore (exec db "ROLLBACK");
  Alcotest.(check string) "region Merkle root" root0 (region_root pages);
  List.iteri
    (fun i img ->
      if not (String.equal img (Statemgr.Pages.page pages i)) then
        Alcotest.failf "page %d differs after ROLLBACK" i)
    before;
  check_rows "rows back" db "SELECT COUNT(*), SUM(k) FROM t" [ "400|80200" ]

(* A statement that fails after writing pages restores the region
   exactly: from the journal file in ACID mode, from the in-memory
   originals without one. The multi-row INSERT's first row writes its
   table leaf, the catalog and its index leaf before the second row's
   duplicate rowid fails. *)
let test_failed_insert_restores_region ~acid () =
  let pages = region () in
  let db = Database.open_db (region_vfs ~acid pages) in
  fill_indexed db;
  let before = List.init (Statemgr.Pages.num_pages pages) (Statemgr.Pages.page pages) in
  Statemgr.Pages.clear_dirty pages;
  let err = expect_error db "INSERT INTO t (id, k, pad) VALUES (1000, 7, 'new'), (5, 8, 'dup')" in
  Alcotest.(check string) "second row fails" "UNIQUE constraint failed: rowid 5" err;
  let written = List.length (Statemgr.Pages.dirty pages) in
  if written < 2 then Alcotest.failf "only %d pages written before the failure" written;
  List.iteri
    (fun i img ->
      if not (String.equal img (Statemgr.Pages.page pages i)) then
        Alcotest.failf "page %d differs after the failed INSERT" i)
    before;
  check_rows "rows unchanged" db "SELECT COUNT(*), SUM(k) FROM t" [ "400|80200" ]

(* --- pager transactions & crash recovery --- *)

let test_pager_rollback () =
  let vfs = Vfs.in_memory ~seed:1 () in
  let pager = Pager.open_pager vfs in
  Pager.begin_txn pager;
  let page = Pager.allocate_page pager in
  Pager.write_page pager page (String.make Pager.page_size 'A');
  Pager.commit pager;
  Pager.begin_txn pager;
  Pager.write_page pager page (String.make Pager.page_size 'B');
  Alcotest.(check char) "visible in txn" 'B' (Pager.read_page pager page).[0];
  Pager.rollback pager;
  Alcotest.(check char) "rolled back" 'A' (Pager.read_page pager page).[0]

let test_pager_crash_recovery () =
  (* Simulate a crash mid-transaction on a disk-backed VFS: volatile
     writes vanish, the durable journal rolls the rest back. *)
  let disk = Simdisk.Disk.create () in
  let vfs = Vfs.on_disk disk ~name:"db" ~seed:1 in
  let pager = Pager.open_pager vfs in
  Pager.begin_txn pager;
  let page = Pager.allocate_page pager in
  Pager.write_page pager page (String.make Pager.page_size 'A');
  Pager.commit pager;
  (* Start a transaction, modify, sync the journal mid-flight (as commit
     would), then crash before the commit completes. *)
  Pager.begin_txn pager;
  Pager.write_page pager page (String.make Pager.page_size 'B');
  (match vfs.Vfs.journal with Some j -> j.Vfs.sync () | None -> ());
  vfs.Vfs.main.sync ();
  (* CRASH before the journal reset: the commit never happened. *)
  Simdisk.Disk.crash disk;
  let vfs2 = Vfs.on_disk disk ~name:"db" ~seed:1 in
  let pager2 = Pager.open_pager vfs2 in
  Alcotest.(check char) "hot journal rolled back" 'A' (Pager.read_page pager2 page).[0]

let test_pager_freelist_reuse () =
  let vfs = Vfs.in_memory ~seed:1 () in
  let pager = Pager.open_pager vfs in
  Pager.begin_txn pager;
  let a = Pager.allocate_page pager in
  let _b = Pager.allocate_page pager in
  Pager.free_page pager a;
  let c = Pager.allocate_page pager in
  Pager.commit pager;
  Alcotest.(check int) "freed page reused" a c

let journal_entries vfs =
  match vfs.Vfs.journal with
  | None -> 0
  | Some j ->
    if j.Vfs.size () < 4 then 0
    else begin
      let s = j.Vfs.read ~pos:0 ~len:4 in
      Char.code s.[0] lor (Char.code s.[1] lsl 8) lor (Char.code s.[2] lsl 16)
      lor (Char.code s.[3] lsl 24)
    end

let test_pager_touch_accounting () =
  (* Journaling an original image is pager bookkeeping, not an
     application touch: a transaction writing one committed page must
     report exactly that page as touched. *)
  let vfs = Vfs.in_memory ~seed:1 () in
  let pager = Pager.open_pager vfs in
  Pager.begin_txn pager;
  let page = Pager.allocate_page pager in
  Pager.commit pager;
  ignore (Pager.take_pages_touched pager);
  Pager.begin_txn pager;
  Pager.write_page pager page (String.make Pager.page_size 'A');
  Pager.commit pager;
  (* Journaling adds no touches, and no header fields changed, so commit
     writes no header image either. *)
  Alcotest.(check int) "one touch through journal and commit" 1 (Pager.take_pages_touched pager)

let test_pager_header_write_deferred () =
  let vfs = Vfs.in_memory ~seed:1 () in
  let pager = Pager.open_pager vfs in
  Pager.begin_txn pager;
  let a = Pager.allocate_page pager in
  let b = Pager.allocate_page pager in
  Pager.write_page pager a (String.make Pager.page_size 'x');
  Pager.write_page pager b (String.make Pager.page_size 'y');
  (* Mid-transaction only the data pages were journaled: the header image
     is written (and its original journaled) once, at commit. *)
  Alcotest.(check int) "no header image mid-txn" 2 (journal_entries vfs);
  Pager.commit pager;
  let pager2 = Pager.open_pager vfs in
  Alcotest.(check int) "page count persisted at commit" (Pager.page_count pager)
    (Pager.page_count pager2)

let test_pager_rollback_restores_header () =
  (* With the header write deferred, a rollback before commit must still
     recover the pre-transaction header fields (from the untouched
     on-disk header). *)
  let vfs = Vfs.in_memory ~seed:1 () in
  let pager = Pager.open_pager vfs in
  let before = Pager.page_count pager in
  Pager.begin_txn pager;
  ignore (Pager.allocate_page pager);
  ignore (Pager.allocate_page pager);
  Pager.rollback pager;
  Alcotest.(check int) "page_count rolled back" before (Pager.page_count pager)

(* --- database: DDL & DML --- *)

let votes_db () =
  let db = fresh_db () in
  ignore (exec db Pbft_service.vote_schema);
  db

let test_create_insert_select () =
  let db = votes_db () in
  ignore (exec db "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('v1', 'a', 1.0, 42)");
  check_rows "select all" db "SELECT voter, choice FROM votes" [ "v1|a" ];
  check_rows "select expr" db "SELECT nonce + 1 FROM votes" [ "43" ]

let test_insert_multi_row () =
  let db = votes_db () in
  ignore
    (exec db "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('a','x',0,0), ('b','y',0,0)");
  check_rows "count" db "SELECT COUNT(*) FROM votes" [ "2" ]

let test_autoincrement_pk () =
  let db = votes_db () in
  ignore (exec db "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('a','x',0,0)");
  ignore (exec db "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('b','y',0,0)");
  check_rows "ids" db "SELECT id FROM votes ORDER BY id" [ "1"; "2" ];
  ignore (exec db "INSERT INTO votes (id, voter, choice, ts, nonce) VALUES (100,'c','z',0,0)");
  ignore (exec db "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('d','w',0,0)");
  check_rows "explicit then continue" db "SELECT MAX(id) FROM votes" [ "101" ]

let test_duplicate_pk_rejected () =
  let db = votes_db () in
  ignore (exec db "INSERT INTO votes (id, voter, choice, ts, nonce) VALUES (7,'a','x',0,0)");
  let e = expect_error db "INSERT INTO votes (id, voter, choice, ts, nonce) VALUES (7,'b','y',0,0)" in
  Alcotest.(check bool) "unique error" true
    (String.length e >= 6 && String.sub e 0 6 = "UNIQUE")

let test_update_delete () =
  let db = votes_db () in
  for i = 1 to 10 do
    ignore
      (exec db
         (Printf.sprintf "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('v%d','%s',0,0)" i
            (if i mod 2 = 0 then "even" else "odd")))
  done;
  let r = exec db "UPDATE votes SET choice = 'EVEN' WHERE choice = 'even'" in
  Alcotest.(check int) "updated" 5 r.Database.affected;
  check_rows "updated values" db "SELECT COUNT(*) FROM votes WHERE choice = 'EVEN'" [ "5" ];
  let r = exec db "DELETE FROM votes WHERE id > 8" in
  Alcotest.(check int) "deleted" 2 r.Database.affected;
  check_rows "remaining" db "SELECT COUNT(*) FROM votes" [ "8" ]

let test_where_plans_agree () =
  (* The pk probe, the index probe and the full scan must return the same
     rows. *)
  let db = votes_db () in
  ignore (exec db "CREATE INDEX by_choice ON votes(choice)");
  for i = 1 to 50 do
    ignore
      (exec db
         (Printf.sprintf "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('v%d','c%d',0,%d)" i
            (i mod 5) i))
  done;
  check_rows "pk probe" db "SELECT voter FROM votes WHERE id = 33" [ "v33" ];
  let via_index = rows_as_strings (exec db "SELECT voter FROM votes WHERE choice = 'c3'") in
  let via_scan = rows_as_strings (exec db "SELECT voter FROM votes WHERE choice || '' = 'c3'") in
  Alcotest.(check (list string)) "index = scan" via_scan via_index;
  Alcotest.(check int) "expected cardinality" 10 (List.length via_index)

let test_index_maintained_on_update_delete () =
  let db = votes_db () in
  ignore (exec db "CREATE INDEX by_choice ON votes(choice)");
  ignore (exec db "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('a','red',0,0)");
  ignore (exec db "UPDATE votes SET choice = 'blue' WHERE voter = 'a'");
  check_rows "old key gone" db "SELECT voter FROM votes WHERE choice = 'red'" [];
  check_rows "new key present" db "SELECT voter FROM votes WHERE choice = 'blue'" [ "a" ];
  ignore (exec db "DELETE FROM votes WHERE voter = 'a'");
  check_rows "deleted from index" db "SELECT voter FROM votes WHERE choice = 'blue'" []

let test_aggregates () =
  let db = votes_db () in
  for i = 1 to 10 do
    ignore
      (exec db
         (Printf.sprintf "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('v','g%d',0,%d)"
            (i mod 2) i))
  done;
  check_rows "count/sum/min/max" db "SELECT COUNT(*), SUM(nonce), MIN(nonce), MAX(nonce) FROM votes"
    [ "10|55|1|10" ];
  check_rows "avg" db "SELECT AVG(nonce) FROM votes" [ "5.5" ];
  check_rows "group by" db
    "SELECT choice, COUNT(*) c, SUM(nonce) s FROM votes GROUP BY choice ORDER BY s"
    [ "g1|5|25"; "g0|5|30" ]

let test_order_limit () =
  let db = votes_db () in
  for i = 1 to 5 do
    ignore
      (exec db (Printf.sprintf "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('v%d','c',0,%d)" i (6 - i)))
  done;
  check_rows "order by expr desc" db "SELECT voter FROM votes ORDER BY nonce DESC LIMIT 2"
    [ "v1"; "v2" ];
  check_rows "order asc" db "SELECT nonce FROM votes ORDER BY nonce LIMIT 3" [ "1"; "2"; "3" ]

let test_join () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE a (id INTEGER PRIMARY KEY, x TEXT)");
  ignore (exec db "CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER, y TEXT)");
  ignore (exec db "INSERT INTO a (x) VALUES ('one'), ('two')");
  ignore (exec db "INSERT INTO b (aid, y) VALUES (1, 'b1'), (1, 'b2'), (2, 'b3')");
  check_rows "inner join" db
    "SELECT a.x, b.y FROM a INNER JOIN b ON a.id = b.aid ORDER BY b.y"
    [ "one|b1"; "one|b2"; "two|b3" ];
  check_rows "cross with where" db
    "SELECT a.x, b.y FROM a, b WHERE a.id = b.aid AND b.y = 'b3'" [ "two|b3" ]

let test_like_and_functions () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)");
  ignore (exec db "INSERT INTO t (s) VALUES ('hello'), ('help'), ('world')");
  check_rows "like prefix" db "SELECT s FROM t WHERE s LIKE 'hel%' ORDER BY s" [ "hello"; "help" ];
  check_rows "like single char" db "SELECT s FROM t WHERE s LIKE 'hel_' " [ "help" ];
  check_rows "length" db "SELECT LENGTH(s) FROM t WHERE s = 'hello'" [ "5" ];
  check_rows "upper/lower" db "SELECT UPPER(s), LOWER('ABC') FROM t WHERE s = 'help'" [ "HELP|abc" ];
  check_rows "coalesce" db "SELECT COALESCE(NULL, NULL, 'x')" [ "x" ];
  check_rows "concat" db "SELECT 'a' || 'b' || 1" [ "ab1" ]

let test_null_semantics () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
  ignore (exec db "INSERT INTO t (v) VALUES (1), (NULL), (3)");
  (* NULL = NULL is NULL, filtered out. *)
  check_rows "null never equal" db "SELECT COUNT(*) FROM t WHERE v = NULL" [ "0" ];
  check_rows "is null" db "SELECT id FROM t WHERE v IS NULL" [ "2" ];
  check_rows "is not null" db "SELECT COUNT(*) FROM t WHERE v IS NOT NULL" [ "2" ];
  check_rows "aggregate skips null" db "SELECT COUNT(v), SUM(v) FROM t" [ "2|4" ];
  check_rows "null arithmetic" db "SELECT 1 + NULL IS NULL" [ "1" ]

let test_type_coercion () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, r REAL, s TEXT)");
  ignore (exec db "INSERT INTO t (n, r, s) VALUES ('42', '2.5', 99)");
  check_rows "coerced" db "SELECT n + 1, r * 2, s || '!' FROM t" [ "43|5|99!" ]

let test_errors () =
  let db = fresh_db () in
  ignore (expect_error db "SELECT * FROM missing");
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  ignore (expect_error db "SELECT nope FROM t");
  ignore (expect_error db "INSERT INTO t (nope) VALUES (1)");
  ignore (expect_error db "CREATE TABLE t (id INTEGER PRIMARY KEY)");
  ignore (expect_error db "UPDATE t SET id = 5");
  ignore (expect_error db "not sql at all");
  (* The failed statements must not have broken the engine. *)
  ignore (exec db "INSERT INTO t (v) VALUES ('still works')");
  check_rows "alive" db "SELECT v FROM t" [ "still works" ]

let test_drop_table () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY)");
  ignore (exec db "DROP TABLE t");
  ignore (expect_error db "SELECT * FROM t");
  ignore (exec db "DROP TABLE IF EXISTS t");
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY)");
  Alcotest.(check (list string)) "tables" [ "t" ] (Database.table_names db)

(* --- transactions --- *)

let test_txn_commit_rollback () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  ignore (exec db "BEGIN");
  Alcotest.(check bool) "in txn" true (Database.in_transaction db);
  ignore (exec db "INSERT INTO t (v) VALUES ('a')");
  ignore (exec db "COMMIT");
  check_rows "committed" db "SELECT v FROM t" [ "a" ];
  ignore (exec db "BEGIN");
  ignore (exec db "INSERT INTO t (v) VALUES ('b')");
  check_rows "visible inside" db "SELECT COUNT(*) FROM t" [ "2" ];
  ignore (exec db "ROLLBACK");
  check_rows "rolled back" db "SELECT v FROM t" [ "a" ]

let test_txn_error_aborts () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  ignore (exec db "BEGIN");
  ignore (exec db "INSERT INTO t (v) VALUES ('x')");
  ignore (expect_error db "INSERT INTO t (nope) VALUES (1)");
  Alcotest.(check bool) "txn aborted" false (Database.in_transaction db);
  check_rows "nothing persisted" db "SELECT COUNT(*) FROM t" [ "0" ]

let test_crash_recovery_acid () =
  (* A whole database on a simulated disk: commit one row, crash during
     the next transaction, reopen: the committed row survives, the torn
     one does not (§3.2's durability argument for the SQL abstraction). *)
  let disk = Simdisk.Disk.create () in
  let open_db () = Database.open_db (Vfs.on_disk disk ~name:"vote.db" ~seed:1) in
  let db = open_db () in
  ignore (exec db Pbft_service.vote_schema);
  ignore (exec db "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('durable','a',0,0)");
  (* Second transaction: left open (never committed) when the crash hits. *)
  ignore (exec db "BEGIN");
  ignore (exec db "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('torn','b',0,0)");
  Simdisk.Disk.crash disk;
  let db2 = open_db () in
  check_rows "committed row survives, torn row gone" db2 "SELECT voter FROM votes"
    [ "durable" ]

let test_no_acid_mode_no_journal () =
  let db = fresh_db ~acid:false () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  ignore (exec db "INSERT INTO t (v) VALUES ('fast')");
  check_rows "works without journal" db "SELECT v FROM t" [ "fast" ];
  (* Rollback still works in-memory via the journaled-originals table?
     No: without a journal there is no rollback; verify it errors
     gracefully by relying on autocommit semantics instead. *)
  ignore (exec db "BEGIN");
  ignore (exec db "INSERT INTO t (v) VALUES ('second')");
  ignore (exec db "COMMIT");
  check_rows "explicit txn in no-acid" db "SELECT COUNT(*) FROM t" [ "2" ]

let test_nondeterministic_functions_use_env () =
  (* NOW() and RANDOM() come from the VFS environment — the §2.5 seam. *)
  let db = fresh_db ~seed:7 () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, ts REAL, r INTEGER)");
  ignore (exec db "INSERT INTO t (ts, r) VALUES (NOW(), RANDOM())");
  ignore (exec db "INSERT INTO t (ts, r) VALUES (NOW(), RANDOM())");
  let rows = (exec db "SELECT ts, r FROM t ORDER BY id").Database.rows in
  (match rows with
  | [ [| Value.Real t1; Value.Int r1 |]; [| Value.Real t2; Value.Int r2 |] ] ->
    Alcotest.(check bool) "clock advances" true (t2 > t1);
    Alcotest.(check bool) "randoms differ" true (r1 <> r2)
  | _ -> Alcotest.fail "unexpected rows");
  (* Same seed, same history -> identical values (determinism). *)
  let db2 = fresh_db ~seed:7 () in
  ignore (exec db2 "CREATE TABLE t (id INTEGER PRIMARY KEY, ts REAL, r INTEGER)");
  ignore (exec db2 "INSERT INTO t (ts, r) VALUES (NOW(), RANDOM())");
  ignore (exec db2 "INSERT INTO t (ts, r) VALUES (NOW(), RANDOM())");
  let rows2 = (exec db2 "SELECT ts, r FROM t ORDER BY id").Database.rows in
  Alcotest.(check bool) "replica determinism" true (rows = rows2)

let test_exec_reports_cost () =
  let db = fresh_db () in
  let o = Database.exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)" in
  Alcotest.(check bool) "cost positive" true (o.Database.cost > 0.0)

let test_render () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  ignore (exec db "INSERT INTO t (v) VALUES ('x')");
  let s = Database.render (exec db "SELECT id, v FROM t") in
  Alcotest.(check bool) "has header" true (String.length s > 0 && String.sub s 0 6 = "id | v")

(* --- access-path planner, statement cache, index DDL --- *)

let test_create_drop_index () =
  let db = votes_db () in
  ignore (exec db "INSERT INTO votes (voter, choice, ts, nonce) VALUES ('a','x',0,0)");
  (* Backfill: the index is created over the existing row. *)
  ignore (exec db "CREATE INDEX by_choice ON votes(choice)");
  check_rows "backfilled" db "SELECT voter FROM votes WHERE choice = 'x'" [ "a" ];
  ignore (expect_error db "CREATE INDEX by_choice ON votes(choice)");
  ignore (exec db "CREATE INDEX IF NOT EXISTS by_choice ON votes(choice)");
  ignore (exec db "DROP INDEX by_choice");
  ignore (expect_error db "DROP INDEX by_choice");
  ignore (exec db "DROP INDEX IF EXISTS by_choice");
  (* Queries keep working (full scan) once the index is gone. *)
  check_rows "scan after drop" db "SELECT voter FROM votes WHERE choice = 'x'" [ "a" ];
  ignore (exec db "CREATE INDEX by_choice ON votes(choice)");
  check_rows "recreated" db "SELECT voter FROM votes WHERE choice = 'x'" [ "a" ]

let test_stmt_cache () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  let h0, m0 = Database.stmt_cache_stats db in
  ignore (exec db "SELECT COUNT(*) FROM t");
  ignore (exec db "SELECT COUNT(*) FROM t");
  let h1, m1 = Database.stmt_cache_stats db in
  Alcotest.(check int) "second exec hits" (h0 + 1) h1;
  Alcotest.(check int) "first exec misses" (m0 + 1) m1;
  (* DDL can change what a cached statement means: the cache is wiped and
     the same text parses again. *)
  ignore (exec db "CREATE INDEX tv ON t(v)");
  ignore (exec db "SELECT COUNT(*) FROM t");
  let h2, m2 = Database.stmt_cache_stats db in
  Alcotest.(check int) "no hit after DDL" h1 h2;
  Alcotest.(check int) "DDL + re-parse both miss" (m1 + 2) m2;
  (* Parse errors are never cached (and don't count as misses): the same
     broken text errors again rather than hitting. *)
  ignore (expect_error db "SELEC nope");
  ignore (expect_error db "SELEC nope");
  let h3, m3 = Database.stmt_cache_stats db in
  Alcotest.(check int) "errors never hit" h2 h3;
  Alcotest.(check int) "errors not cached as misses" m2 m3;
  ignore (exec db "SELECT COUNT(*) FROM t");
  let h4, _ = Database.stmt_cache_stats db in
  Alcotest.(check int) "good statement still cached" (h3 + 1) h4

let test_indexed_probe_page_cost () =
  (* The acceptance criterion behind the sql:indexed_point benchmark: on a
     1600-row table a point probe through the secondary index touches
     O(log n) pages where the forced full scan touches O(n). *)
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, pad TEXT)");
  ignore (exec db "CREATE INDEX t_k ON t(k)");
  let pad = String.make 200 'x' in
  for batch = 0 to 15 do
    let rows =
      List.init 100 (fun i ->
          let id = (batch * 100) + i + 1 in
          Printf.sprintf "(%d, %d, '%s')" id id pad)
    in
    ignore (exec db ("INSERT INTO t (id, k, pad) VALUES " ^ String.concat ", " rows))
  done;
  let probe = Database.exec db "SELECT COUNT(*) FROM t WHERE k = 1234" in
  Database.set_planner_enabled db false;
  let scan = Database.exec db "SELECT COUNT(*) FROM t WHERE k = 1234" in
  Database.set_planner_enabled db true;
  (match (probe.Database.res, scan.Database.res) with
  | Ok a, Ok b -> Alcotest.(check bool) "same answer" true (a.Database.rows = b.Database.rows)
  | _ -> Alcotest.fail "probe or scan errored");
  Alcotest.(check int) "probe evaluates one candidate row" 1 probe.Database.rows_scanned;
  Alcotest.(check bool) "scan evaluates every row" true (scan.Database.rows_scanned >= 1600);
  if probe.Database.pages_read > 20 then
    Alcotest.failf "point probe touched %d pages (want O(log n))" probe.Database.pages_read;
  if scan.Database.pages_read < 5 * probe.Database.pages_read then
    Alcotest.failf "no asymptotic gap: scan %d pages vs probe %d" scan.Database.pages_read
      probe.Database.pages_read

let agree_with_forced_scan db name sql =
  let planned = exec db sql in
  Database.set_planner_enabled db false;
  let scanned = exec db sql in
  Database.set_planner_enabled db true;
  Alcotest.(check (list string)) name (rows_as_strings scanned) (rows_as_strings planned)

let test_planner_huge_int_bounds () =
  (* Regression: bounds on INTEGER columns used to round-trip through
     floats, so WHERE k > 999999999999999999 (a literal that rounds to
     1e18) started the index scan at 1e18 + 1 and silently dropped a
     stored 10^18; a saturation band also clamped bounds past |4e18| to
     the int extremes, dropping storable values beyond the band. Bounds
     are now exact for Int literals; Real literals may widen, never
     shrink. *)
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)");
  ignore (exec db "CREATE INDEX t_k ON t(k)");
  ignore
    (exec db
       "INSERT INTO t (k) VALUES (999999999999999999), (1000000000000000000), \
        (1000000000000000032), (4300000000000000000), (4611686018427387903), \
        (-4500000000000000000)");
  let agree = agree_with_forced_scan db in
  agree "strict lower, float-inexact int literal" "SELECT k FROM t WHERE k > 999999999999999999";
  agree "inclusive lower above the old band" "SELECT k FROM t WHERE k >= 4300000000000000000";
  agree "equality at max_int" "SELECT k FROM t WHERE k = 4611686018427387903";
  agree "upper bound below the old negative band" "SELECT k FROM t WHERE k < -4000000000000000000";
  agree "real equality hits its whole rounding bucket"
    "SELECT k FROM t WHERE k = 1000000000000000000.0";
  agree "real strict lower" "SELECT k FROM t WHERE k > 999999999999999872.0";
  (* The concrete row the float round-trip used to drop: *)
  check_rows "10^18 retained under strict bound" db
    "SELECT k FROM t WHERE k > 999999999999999999 AND k < 1000000000000000001"
    [ "1000000000000000000" ];
  (* Every int of the 1e18 rounding bucket — 10^18 -1, 10^18 and
     10^18 + 32 all convert to exactly 1e18 — compares equal to the Real
     literal and must surface. *)
  check_rows "full bucket for real equality" db
    "SELECT k FROM t WHERE k = 1000000000000000000.0 ORDER BY k"
    [ "999999999999999999"; "1000000000000000000"; "1000000000000000032" ]

let test_index_scan_negative_rowid_order () =
  (* Negative rowids sort after positive ones in the row tree (keys are
     raw big-endian int64), so a full scan yields positives first. The
     index path re-sorts its candidates by those same key bytes — sorting
     by signed rowid instead put negatives first and broke the
     every-path-same-order invariant. *)
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)");
  ignore (exec db "CREATE INDEX t_a ON t(a)");
  ignore (exec db "INSERT INTO t (id, a) VALUES (-3, 1), (2, 1), (-1, 1), (5, 1)");
  agree_with_forced_scan db "index path order matches scan order" "SELECT id FROM t WHERE a = 1";
  check_rows "positives first, then negatives" db "SELECT id FROM t WHERE a = 1"
    [ "2"; "5"; "-3"; "-1" ]

let prop_planner_matches_scan =
  (* Two databases with identical schema (indexes included) execute the
     same random statement stream; one has the access-path planner
     disabled so every WHERE falls back to the reference full scan. Rows
     (including order: index probes re-sort candidates by rowid),
     affected counts and error-ness must agree statement by statement,
     across interleaved INSERT/UPDATE/DELETE. *)
  let open QCheck in
  (* A few values near the float-exactness and int-range edges, so index
     bounds computed from huge literals get exercised against stored
     huge values (negated literals are sargable too). *)
  let huge = [ "999999999999999999"; "1000000000000000000"; "1000000000000000032";
               "4300000000000000000"; "4611686018427387903"; "-4500000000000000000" ] in
  let small_int_gen = Gen.map string_of_int (Gen.int_range (-20) 20) in
  let int_lit_gen = Gen.frequency [ (4, small_int_gen); (1, Gen.oneofl huge) ] in
  let lit_gen =
    Gen.oneof
      [
        int_lit_gen;
        Gen.map (fun i -> Printf.sprintf "%d.5" i) (Gen.int_range (-20) 20);
        Gen.oneofl [ "1000000000000000000.0"; "999999999999999872.0" ];
        Gen.map (fun i -> Printf.sprintf "'t%d'" i) (Gen.int_range 0 15);
        Gen.return "NULL";
      ]
  in
  let conj_gen =
    Gen.map3
      (fun c o l -> Printf.sprintf "%s %s %s" c o l)
      (Gen.oneofl [ "id"; "a"; "b"; "c" ])
      (Gen.oneofl [ "="; "<"; "<="; ">"; ">="; "<>" ])
      lit_gen
  in
  let where_gen =
    Gen.oneof
      [
        Gen.return "";
        Gen.map (fun c -> " WHERE " ^ c) conj_gen;
        Gen.map2 (fun c1 c2 -> Printf.sprintf " WHERE %s AND %s" c1 c2) conj_gen conj_gen;
        Gen.oneofl [ " WHERE a IS NULL"; " WHERE c IS NOT NULL" ];
      ]
  in
  let stmt_gen =
    Gen.oneof
      [
        Gen.map3
          (fun a b c -> Printf.sprintf "INSERT INTO t (a, b, c) VALUES (%s, %d.25, 't%d')" a b c)
          int_lit_gen (Gen.int_range (-20) 20) (Gen.int_range 0 15);
        Gen.map (fun w -> "SELECT id, a, b, c FROM t" ^ w) where_gen;
        Gen.map2
          (fun a w -> Printf.sprintf "UPDATE t SET a = %s%s" a w)
          int_lit_gen where_gen;
        Gen.map (fun w -> "DELETE FROM t" ^ w) where_gen;
      ]
  in
  QCheck.Test.make ~name:"planner access paths match forced full scan" ~count:60
    (make ~print:(String.concat ";\n") (Gen.list_size (Gen.int_range 5 25) stmt_gen))
    (fun stmts ->
      let planned = fresh_db () in
      let scanned = fresh_db () in
      Database.set_planner_enabled scanned false;
      let schema =
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, c TEXT); \
         CREATE INDEX t_a ON t(a); CREATE INDEX t_c ON t(c)"
      in
      ignore (exec planned schema);
      ignore (exec scanned schema);
      List.for_all
        (fun sql ->
          let x = Database.exec planned sql in
          let y = Database.exec scanned sql in
          match (x.Database.res, y.Database.res) with
          | Ok rx, Ok ry ->
            rx.Database.rows = ry.Database.rows && rx.Database.affected = ry.Database.affected
          | Error _, Error _ -> true
          | _ -> false)
        stmts)

(* The read-only classifier must be sound (never pass a write or a
   non-deterministic expression: a misclassified op would execute
   unordered at every replica and diverge) and useful (pass the plain
   SELECTs the read-mix workloads actually issue). *)
let test_is_readonly_sql () =
  let ro = Relsql.Pbft_service.is_readonly_sql in
  List.iter
    (fun sql -> Alcotest.(check bool) ("read-only: " ^ sql) true (ro sql))
    [
      "SELECT COUNT(*), SUM(id) FROM lookup WHERE k = 3";
      "SELECT * FROM votes";
      "SELECT voter FROM votes WHERE choice = 'alice' ORDER BY voter LIMIT 5";
      "SELECT k, COUNT(*) FROM lookup GROUP BY k";
      "SELECT UPPER(voter) FROM votes";
      (* batches are fine as long as every statement is a pure SELECT *)
      "SELECT 1; SELECT 2";
    ];
  List.iter
    (fun sql -> Alcotest.(check bool) ("ordered: " ^ sql) false (ro sql))
    [
      "INSERT INTO lookup (id, k, pad) VALUES (1, 2, 'w')";
      "UPDATE votes SET choice = 'bob'";
      "DELETE FROM votes WHERE id = 1";
      "CREATE TABLE t (id INTEGER PRIMARY KEY)";
      "BEGIN";
      (* non-deterministic expressions diverge on the fast path *)
      "SELECT RANDOM()";
      "SELECT NOW()";
      "SELECT * FROM votes WHERE ts < NOW()";
      "SELECT id FROM votes ORDER BY RANDOM()";
      (* a write hiding behind a batch of reads *)
      "SELECT 1; DELETE FROM votes";
      (* unparseable text orders, so the error reply is deterministic *)
      "SELEC whoops";
      "";
    ]

let () =
  Alcotest.run "relsql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basic;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "block comments" `Quick test_lexer_block_comment;
        ] );
      ( "parser",
        [
          Alcotest.test_case "select" `Quick test_parser_select;
          Alcotest.test_case "create table" `Quick test_parser_create;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "multi-statement" `Quick test_parser_multi_statement;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
        ] );
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          qcheck prop_key_encode_order;
          qcheck prop_value_codec_roundtrip;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basics" `Quick test_btree_basic;
          Alcotest.test_case "many keys & order" `Quick test_btree_many_and_order;
          Alcotest.test_case "iter upper bound" `Quick test_btree_iter_upto;
          Alcotest.test_case "entry too large" `Quick test_btree_entry_too_large;
          Alcotest.test_case "skewed entry sizes split where both halves fit" `Quick
            test_btree_skewed_split;
          Alcotest.test_case "persistence" `Quick test_btree_persistence;
          qcheck prop_btree_vs_map;
          qcheck prop_leaf_image;
          Alcotest.test_case "leaf image at varint edges" `Quick test_leaf_image_varint_edges;
          Alcotest.test_case "leaf split at max_node_bytes + 1" `Quick test_leaf_split_boundary;
          qcheck prop_probe_matches_reference;
          Alcotest.test_case "probe on a three-level tree" `Quick test_probe_three_levels;
          qcheck prop_find_many_matches_find;
          qcheck prop_probe_corrupt_images;
          Alcotest.test_case "corrupt cycles raise Corrupt" `Quick test_probe_cycles_raise_corrupt;
          Alcotest.test_case "iter callback splits the leaf" `Quick test_iter_callback_splits_leaf;
          Alcotest.test_case "index-scan DML matches forced scan (region bytes)" `Quick
            test_index_dml_matches_forced_scan;
          Alcotest.test_case "ROLLBACK restores the exact region" `Quick
            test_rollback_restores_region;
          Alcotest.test_case "failed INSERT restores the region (journal file)" `Quick
            (test_failed_insert_restores_region ~acid:true);
          Alcotest.test_case "failed INSERT restores the region (no-ACID, memory)" `Quick
            (test_failed_insert_restores_region ~acid:false);
        ] );
      ( "pager",
        [
          Alcotest.test_case "rollback" `Quick test_pager_rollback;
          Alcotest.test_case "crash recovery (hot journal)" `Quick test_pager_crash_recovery;
          Alcotest.test_case "freelist reuse" `Quick test_pager_freelist_reuse;
          Alcotest.test_case "touch accounting (journal reads free)" `Quick
            test_pager_touch_accounting;
          Alcotest.test_case "header write deferred to commit" `Quick
            test_pager_header_write_deferred;
          Alcotest.test_case "rollback restores deferred header" `Quick
            test_pager_rollback_restores_header;
        ] );
      ( "sql",
        [
          Alcotest.test_case "create/insert/select" `Quick test_create_insert_select;
          Alcotest.test_case "multi-row insert" `Quick test_insert_multi_row;
          Alcotest.test_case "autoincrement pk" `Quick test_autoincrement_pk;
          Alcotest.test_case "duplicate pk" `Quick test_duplicate_pk_rejected;
          Alcotest.test_case "update/delete" `Quick test_update_delete;
          Alcotest.test_case "plans agree" `Quick test_where_plans_agree;
          Alcotest.test_case "index maintenance" `Quick test_index_maintained_on_update_delete;
          Alcotest.test_case "aggregates & group by" `Quick test_aggregates;
          Alcotest.test_case "order/limit" `Quick test_order_limit;
          Alcotest.test_case "joins" `Quick test_join;
          Alcotest.test_case "like & functions" `Quick test_like_and_functions;
          Alcotest.test_case "null three-valued logic" `Quick test_null_semantics;
          Alcotest.test_case "type coercion" `Quick test_type_coercion;
          Alcotest.test_case "errors don't corrupt" `Quick test_errors;
          Alcotest.test_case "drop table" `Quick test_drop_table;
        ] );
      ( "planner",
        [
          Alcotest.test_case "create/drop index DDL" `Quick test_create_drop_index;
          Alcotest.test_case "statement cache" `Quick test_stmt_cache;
          Alcotest.test_case "point probe is O(log n) pages" `Quick test_indexed_probe_page_cost;
          Alcotest.test_case "huge-int bounds stay exact" `Quick test_planner_huge_int_bounds;
          Alcotest.test_case "negative rowid order" `Quick test_index_scan_negative_rowid_order;
          qcheck prop_planner_matches_scan;
        ] );
      ( "classifier",
        [ Alcotest.test_case "planner-proven read-only SQL" `Quick test_is_readonly_sql ] );
      ( "transactions",
        [
          Alcotest.test_case "commit & rollback" `Quick test_txn_commit_rollback;
          Alcotest.test_case "error aborts txn" `Quick test_txn_error_aborts;
          Alcotest.test_case "crash recovery end-to-end" `Quick test_crash_recovery_acid;
          Alcotest.test_case "no-ACID mode" `Quick test_no_acid_mode_no_journal;
          Alcotest.test_case "NOW/RANDOM via env" `Quick test_nondeterministic_functions_use_env;
          Alcotest.test_case "cost reporting" `Quick test_exec_reports_cost;
          Alcotest.test_case "render" `Quick test_render;
        ] );
    ]
