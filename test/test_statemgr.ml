(* Tests for the paged state region, Merkle tree and checkpoints. *)

let qcheck = QCheck_alcotest.to_alcotest

let make_pages ?(num_pages = 16) () = Statemgr.Pages.create ~page_size:256 ~num_pages ()

(* A write the way the region's users make one: notify the range, then
   write it (§3.2's contract; the contract itself is tested below). *)
let notified_write p ~pos s =
  Statemgr.Pages.notify_modify p ~pos ~len:(String.length s);
  Statemgr.Pages.write p ~pos s

(* --- pages --- *)

let test_pages_rw () =
  let p = make_pages () in
  notified_write p ~pos:10 "hello";
  Alcotest.(check string) "read back" "hello" (Statemgr.Pages.read p ~pos:10 ~len:5);
  Alcotest.(check string) "zeros elsewhere" "\000\000" (Statemgr.Pages.read p ~pos:100 ~len:2)

let test_pages_cross_page_write () =
  let p = make_pages () in
  let s = String.init 300 (fun i -> Char.chr (i mod 256)) in
  notified_write p ~pos:200 s;
  Alcotest.(check string) "spans pages" s (Statemgr.Pages.read p ~pos:200 ~len:300);
  Alcotest.(check (list int)) "both pages dirty" [ 0; 1 ] (Statemgr.Pages.dirty p)

let test_pages_bounds () =
  let p = make_pages () in
  Alcotest.check_raises "oob read" (Invalid_argument "Pages: out of bounds") (fun () ->
      ignore (Statemgr.Pages.read p ~pos:(16 * 256) ~len:1));
  Alcotest.check_raises "oob write" (Invalid_argument "Pages: out of bounds") (fun () ->
      Statemgr.Pages.write p ~pos:(16 * 256 - 1) "ab")

(* §3.2's "havoc caused by a misbehaving application which fails to
   notify the library before modifying memory": the region turns the
   violation into an exception. *)
let test_pages_strict_contract () =
  let p = make_pages () in
  Alcotest.check_raises "unnotified write" (Statemgr.Pages.Unnotified_write 0) (fun () ->
      Statemgr.Pages.write p ~pos:0 "x");
  Statemgr.Pages.notify_modify p ~pos:0 ~len:1;
  Statemgr.Pages.write p ~pos:0 "x";
  Alcotest.(check string) "after notify ok" "x" (Statemgr.Pages.read p ~pos:0 ~len:1);
  (* The notification covers only its pages. *)
  Alcotest.check_raises "other page still protected" (Statemgr.Pages.Unnotified_write 3)
    (fun () -> Statemgr.Pages.write p ~pos:(3 * 256) "y")

(* A default region raises before touching a byte, even when only the
   second page of a write lacks its notification, and [clear_dirty] (a
   checkpoint boundary) re-arms the check. *)
let test_pages_unnotified_write_raises () =
  let p = make_pages () in
  Statemgr.Pages.notify_modify p ~pos:0 ~len:1;
  Alcotest.check_raises "second page unnotified" (Statemgr.Pages.Unnotified_write 1) (fun () ->
      Statemgr.Pages.write p ~pos:250 "0123456789");
  Alcotest.(check string) "nothing written" (String.make 10 '\000')
    (Statemgr.Pages.read p ~pos:250 ~len:10);
  Alcotest.(check (list int)) "dirty set unchanged" [ 0 ] (Statemgr.Pages.dirty p);
  Statemgr.Pages.write p ~pos:0 "x";
  Statemgr.Pages.clear_dirty p;
  Alcotest.check_raises "re-armed after clear_dirty" (Statemgr.Pages.Unnotified_write 0) (fun () ->
      Statemgr.Pages.write p ~pos:0 "y");
  Alcotest.(check string) "old byte kept" "x" (Statemgr.Pages.read p ~pos:0 ~len:1)

let test_pages_dirty_tracking () =
  let p = make_pages () in
  Alcotest.(check (list int)) "clean" [] (Statemgr.Pages.dirty p);
  Statemgr.Pages.notify_modify p ~pos:600 ~len:10;
  Alcotest.(check (list int)) "notify marks" [ 2 ] (Statemgr.Pages.dirty p);
  notified_write p ~pos:0 "a";
  Alcotest.(check (list int)) "write marks" [ 0; 2 ] (Statemgr.Pages.dirty p);
  Statemgr.Pages.clear_dirty p;
  Alcotest.(check (list int)) "cleared" [] (Statemgr.Pages.dirty p)

let test_pages_sparse_allocation () =
  let p = make_pages ~num_pages:1000 () in
  Alcotest.(check int) "nothing allocated" 0 (Statemgr.Pages.allocated_pages p);
  notified_write p ~pos:(500 * 256) "x";
  Alcotest.(check int) "one page materialized" 1 (Statemgr.Pages.allocated_pages p)

let test_pages_copy_isolated () =
  let p = make_pages () in
  notified_write p ~pos:0 "orig";
  let q = Statemgr.Pages.copy p in
  notified_write p ~pos:0 "mut!";
  Alcotest.(check string) "copy unchanged" "orig" (Statemgr.Pages.read q ~pos:0 ~len:4)

(* Aliasing a page range hands over buffers, not bytes: the image, the
   region it came from and the region it went to share them until one
   writes, and the writer alone sees the write. The adopted pages are
   dirty; nothing is copied or counted as a snapshot, and the generation
   stays put. *)
let test_pages_alias_range () =
  let module P = Statemgr.Pages in
  let src = P.create ~page_size:64 ~num_pages:6 () in
  notified_write src ~pos:(2 * 64) (String.make 64 'a');
  notified_write src ~pos:(3 * 64) (String.make 64 'b');
  P.clear_dirty src;
  let copied0 = P.bytes_copied () and snaps0 = P.snapshots_taken () in
  let image = P.create ~page_size:64 ~num_pages:3 () in
  P.alias_pages image ~first:0 ~src ~src_first:2 ~count:3;
  let dst = P.create ~page_size:64 ~num_pages:5 () in
  P.alias_pages dst ~first:1 ~src:image ~src_first:0 ~count:3;
  Alcotest.(check (list int)) "adopted pages dirty, zero page left alone" [ 1; 2 ] (P.dirty dst);
  Alcotest.(check (list int)) "source dirty set untouched" [] (P.dirty src);
  Alcotest.(check int) "no bytes copied" copied0 (P.bytes_copied ());
  Alcotest.(check int) "no snapshot counted" snaps0 (P.snapshots_taken ());
  Alcotest.(check int) "generation unchanged" 0 (P.generation dst);
  Alcotest.(check string) "page adopted" (String.make 64 'a') (P.page dst 1);
  Alcotest.(check bool) "buffer shared, not copied" true
    (match (P.page_bytes dst 2, P.page_bytes src 3) with
    | Some a, Some b -> a == b
    | _ -> false);
  Alcotest.(check bool) "zero page stays unbacked" true (P.page_bytes dst 3 = None);
  notified_write dst ~pos:64 "X";
  Alcotest.(check char) "writer sees its write" 'X' (P.page dst 1).[0];
  Alcotest.(check string) "source keeps its page" (String.make 64 'a') (P.page src 2);
  Alcotest.(check string) "image keeps its page" (String.make 64 'a') (P.page image 0);
  notified_write src ~pos:(3 * 64) "Y";
  Alcotest.(check string) "adopter keeps its page" (String.make 64 'b') (P.page dst 2);
  Alcotest.(check string) "image unaffected by the source" (String.make 64 'b') (P.page image 1);
  Alcotest.(check int) "each first write copied one page" (copied0 + 128) (P.bytes_copied ());
  let over = P.create ~page_size:64 ~num_pages:2 () in
  notified_write over ~pos:0 (String.make 64 'o');
  P.clear_dirty over;
  P.alias_pages over ~first:0 ~src:image ~src_first:2 ~count:1;
  Alcotest.(check bool) "unbacked page replaces data" true (P.page_bytes over 0 = None);
  Alcotest.(check (list int)) "and is dirty" [ 0 ] (P.dirty over);
  Alcotest.check_raises "page size mismatch" (Invalid_argument "Pages.alias_pages: page size mismatch")
    (fun () -> P.alias_pages (P.create ~page_size:32 ~num_pages:3 ()) ~first:0 ~src ~src_first:0 ~count:1);
  Alcotest.check_raises "out of range" (Invalid_argument "Pages.alias_pages") (fun () ->
      P.alias_pages dst ~first:3 ~src:image ~src_first:0 ~count:3)

let test_pages_load_page () =
  let p = make_pages () in
  let img = String.make 256 'z' in
  Statemgr.Pages.load_page p 3 img;
  Alcotest.(check string) "installed" img (Statemgr.Pages.page p 3);
  Alcotest.check_raises "size mismatch" (Invalid_argument "Pages.load_page: size mismatch")
    (fun () -> Statemgr.Pages.load_page p 0 "short")

(* Page views borrow the live buffer. A snapshot taken before a write
   still reads the old bytes even after a view of that page was handed
   out, because the write copies the shared page first; without a
   snapshot the view is the live buffer, which is why a view must not be
   kept across a write. Untouched pages share one zero page that writes
   never reach. *)
let test_pages_view_aliasing () =
  let p = Statemgr.Pages.create ~page_size:64 ~num_pages:8 () in
  let old = String.make 64 'o' in
  notified_write p ~pos:(3 * 64) old;
  let snap = Statemgr.Pages.snapshot p in
  let v = Statemgr.Pages.page_view p 3 in
  Alcotest.(check string) "view shows the page" old v;
  notified_write p ~pos:(3 * 64) "new";
  let updated = "new" ^ String.make 61 'o' in
  Alcotest.(check string) "snapshot keeps the old bytes" old (Statemgr.Pages.snapshot_page snap 3);
  Alcotest.(check string) "the earlier view still reads the snapshot's buffer" old v;
  Alcotest.(check string) "live page has the write" updated (Statemgr.Pages.page p 3);
  Alcotest.(check string) "a fresh view sees the write" updated (Statemgr.Pages.page_view p 3);
  let live = Statemgr.Pages.page_view p 3 in
  notified_write p ~pos:(3 * 64) "X";
  Alcotest.(check char) "an unshared view aliases the live buffer" 'X' live.[0];
  let zero = String.make 64 '\000' in
  let z = Statemgr.Pages.page_view p 5 in
  notified_write p ~pos:(5 * 64) "dirty";
  Alcotest.(check string) "zero view untouched by the write" zero z;
  Alcotest.(check string) "other untouched pages still zero" zero (Statemgr.Pages.page_view p 6);
  Alcotest.check_raises "bounds" (Invalid_argument "Pages.page_view") (fun () ->
      ignore (Statemgr.Pages.page_view p 8))

(* The copy-on-write snapshots must be observationally identical to a
   deep-copy reference model: live region = string array, snapshot = full
   copy of it. Ops: write / take snapshot / restore from any snapshot /
   load_page, in arbitrary interleavings. *)
let prop_cow_matches_deep_copy_model =
  let num_pages = 8 and page_size = 256 in
  let model_write model ~pos s =
    String.iteri
      (fun i c ->
        let p = (pos + i) / page_size and o = (pos + i) mod page_size in
        Bytes.set model.(p) o c)
      s
  in
  QCheck.Test.make ~name:"COW snapshots = deep-copy model" ~count:200
    QCheck.(small_list (triple small_nat small_nat small_string))
    (fun ops ->
      let live = Statemgr.Pages.create ~page_size ~num_pages () in
      let model = Array.init num_pages (fun _ -> Bytes.make page_size '\000') in
      (* (COW snapshot, deep-copied model at the same instant) pairs *)
      let snaps = ref [] in
      let agree () =
        List.init num_pages (fun i -> Statemgr.Pages.page live i)
        = (Array.to_list model |> List.map Bytes.to_string)
      in
      List.for_all
        (fun (kind, b, content) ->
          (match kind mod 4 with
          | 0 ->
            let page = b mod num_pages in
            let content = if content = "" then "w" else content in
            let content =
              String.sub content 0 (min (String.length content) (page_size - 1))
            in
            let pos = (page * page_size) + (b mod (page_size - String.length content)) in
            notified_write live ~pos content;
            model_write model ~pos content
          | 1 ->
            snaps :=
              (Statemgr.Pages.snapshot live, Array.map Bytes.copy model) :: !snaps
          | 2 -> (
            match !snaps with
            | [] -> ()
            | l ->
              let snap, msnap = List.nth l (b mod List.length l) in
              for i = 0 to num_pages - 1 do
                Statemgr.Pages.restore_page live snap i;
                Bytes.blit msnap.(i) 0 model.(i) 0 page_size
              done)
          | _ ->
            let page = b mod num_pages in
            let img =
              String.init page_size (fun i ->
                  if i < String.length content then content.[i] else 'L')
            in
            Statemgr.Pages.load_page live page img;
            model_write model ~pos:(page * page_size) img);
          agree ())
        ops
      && List.for_all
           (fun (snap, msnap) ->
             List.init num_pages (fun i -> Statemgr.Pages.snapshot_page snap i)
             = (Array.to_list msnap |> List.map Bytes.to_string))
           !snaps)

(* --- merkle --- *)

let test_merkle_root_changes () =
  let p = make_pages () in
  let t = Statemgr.Merkle.build p in
  let r0 = Statemgr.Merkle.root t in
  notified_write p ~pos:0 "x";
  Statemgr.Merkle.update t p [ 0 ];
  let r1 = Statemgr.Merkle.root t in
  Alcotest.(check bool) "root changed" false (String.equal r0 r1)

let prop_merkle_update_equals_rebuild =
  QCheck.Test.make ~name:"incremental update = full rebuild" ~count:100
    QCheck.(small_list (pair small_nat small_string))
    (fun writes ->
      let p = make_pages () in
      let t = Statemgr.Merkle.build p in
      List.iter
        (fun (page, content) ->
          let page = page mod 16 in
          let content = if content = "" then "x" else content in
          let content = String.sub content 0 (min 200 (String.length content)) in
          notified_write p ~pos:(page * 256) content;
          Statemgr.Merkle.update t p [ page ])
        writes;
      String.equal (Statemgr.Merkle.root t) (Statemgr.Merkle.root (Statemgr.Merkle.build p)))

let prop_merkle_diff_finds_changes =
  QCheck.Test.make ~name:"diff finds exactly the changed pages" ~count:100
    QCheck.(small_list small_nat)
    (fun pages_to_change ->
      let changed = List.sort_uniq compare (List.map (fun i -> i mod 16) pages_to_change) in
      let a = make_pages () in
      let ta = Statemgr.Merkle.build a in
      let b = make_pages () in
      List.iter (fun page -> notified_write b ~pos:(page * 256) "CHANGED") changed;
      let tb = Statemgr.Merkle.build b in
      let divergent, visited = Statemgr.Merkle.diff ta tb in
      divergent = changed && visited >= 1)

let test_merkle_diff_identical () =
  let p = make_pages () in
  let t = Statemgr.Merkle.build p in
  let divergent, visited = Statemgr.Merkle.diff t (Statemgr.Merkle.copy t) in
  Alcotest.(check (list int)) "no divergence" [] divergent;
  Alcotest.(check int) "only root visited" 1 visited

let test_merkle_leaf_access () =
  let p = make_pages () in
  let t = Statemgr.Merkle.build p in
  Alcotest.(check int) "leaves" 16 (Statemgr.Merkle.num_leaves t);
  Alcotest.check_raises "oob leaf" (Invalid_argument "Merkle.leaf") (fun () ->
      ignore (Statemgr.Merkle.leaf t 16))

let test_merkle_non_power_of_two () =
  let p = Statemgr.Pages.create ~page_size:64 ~num_pages:5 () in
  let t = Statemgr.Merkle.build p in
  notified_write p ~pos:(4 * 64) "tail";
  Statemgr.Merkle.update t p [ 4 ];
  Alcotest.(check bool) "rebuild agrees" true
    (String.equal (Statemgr.Merkle.root t) (Statemgr.Merkle.root (Statemgr.Merkle.build p)))

(* --- the frozen-page leaf memo --- *)

(* The oracle root of a region: every leaf from [Pages.page], a fresh
   string, so it never reads a buffer the leaf memo could answer for. *)
let oracle_root p =
  Statemgr.Merkle.root_of_leaves
    (List.init (Statemgr.Pages.num_pages p) (fun i ->
         Statemgr.Merkle.page_digest (Statemgr.Pages.page p i)))

type memo_op =
  | Write of int * int * string (* region, byte offset, bytes *)
  | Alias of int * int * int * int (* destination region, first, src_first, count *)
  | Snapshot of int
  | Restore of int * int * int (* region, snapshot index, page *)
  | Load of int * int * char (* region, page, fill *)
  | Copy of int (* the other region becomes a copy of this one *)

let show_memo_op = function
  | Write (r, pos, s) -> Printf.sprintf "Write(%d, %d, %S)" r pos s
  | Alias (r, first, src_first, count) -> Printf.sprintf "Alias(%d, %d, %d, %d)" r first src_first count
  | Snapshot r -> Printf.sprintf "Snapshot %d" r
  | Restore (r, k, i) -> Printf.sprintf "Restore(%d, %d, %d)" r k i
  | Load (r, i, c) -> Printf.sprintf "Load(%d, %d, %C)" r i c
  | Copy r -> Printf.sprintf "Copy %d" r

let prop_frozen_page_memo_sound =
  let num_pages = 8 and page_size = 64 in
  let op =
    let open QCheck.Gen in
    let region = int_bound 1 and page = int_bound (num_pages - 1) in
    frequency
      [
        ( 4,
          map3
            (fun r pos s -> Write (r, pos, s))
            region
            (int_bound ((num_pages * page_size) - 20))
            (string_size ~gen:printable (int_range 1 20)) );
        ( 3,
          map3
            (fun r (first, src_first) count ->
              let count = min count (num_pages - max first src_first) in
              Alias (r, first, src_first, count))
            region (pair page page) (int_range 1 num_pages) );
        (2, map (fun r -> Snapshot r) region);
        (2, map3 (fun r k i -> Restore (r, k, i)) region (int_bound 3) page);
        (1, map3 (fun r i c -> Load (r, i, c)) region page printable);
        (1, map (fun r -> Copy r) region);
      ]
  in
  QCheck.Test.make ~name:"leaf memo: incremental roots = fresh-page oracle" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_memo_op) (QCheck.Gen.list_size (QCheck.Gen.int_bound 40) op))
    (fun ops ->
      let regions = Array.init 2 (fun _ -> Statemgr.Pages.create ~page_size ~num_pages ()) in
      let trees = Array.map Statemgr.Merkle.build regions in
      let snaps = ref [] in
      let step = function
        | Write (r, pos, s) -> notified_write regions.(r) ~pos s
        | Alias (r, first, src_first, count) ->
          Statemgr.Pages.alias_pages regions.(r) ~first ~src:regions.(1 - r) ~src_first ~count
        | Snapshot r -> snaps := Statemgr.Pages.snapshot regions.(r) :: !snaps
        | Restore (r, k, i) -> (
          match !snaps with
          | [] -> ()
          | l -> Statemgr.Pages.restore_page regions.(r) (List.nth l (k mod List.length l)) i)
        | Load (r, i, c) -> Statemgr.Pages.load_page regions.(r) i (String.make page_size c)
        | Copy r ->
          regions.(1 - r) <- Statemgr.Pages.copy regions.(r);
          trees.(1 - r) <- Statemgr.Merkle.copy trees.(r)
      in
      List.for_all
        (fun o ->
          step o;
          Array.for_all2
            (fun p t ->
              Statemgr.Merkle.update t p (Statemgr.Pages.dirty p);
              Statemgr.Pages.clear_dirty p;
              String.equal (Statemgr.Merkle.root t) (oracle_root p))
            regions trees)
        ops)

(* Two regions sharing every buffer hash them once; a write to one side
   un-shares only that side's page, so only that side's root moves. *)
let test_memo_alias_then_write_one_side () =
  let a = make_pages ~num_pages:8 () and b = make_pages ~num_pages:8 () in
  for i = 0 to 7 do
    notified_write a ~pos:(i * 256) (Printf.sprintf "page %d of the image" i)
  done;
  Statemgr.Pages.alias_pages b ~first:0 ~src:a ~src_first:0 ~count:8;
  let ta = Statemgr.Merkle.build a in
  let hashed = Crypto.Sha256.bytes_hashed () in
  let tb = Statemgr.Merkle.build b in
  (* Seven inner nodes, each "node|" and two 32-byte children; no page. *)
  Alcotest.(check int) "the aliased pages are not hashed again" (7 * (5 + 64))
    (Crypto.Sha256.bytes_hashed () - hashed);
  Alcotest.(check string) "same root" (Statemgr.Merkle.root ta) (Statemgr.Merkle.root tb);
  let root0 = Statemgr.Merkle.root ta in
  Statemgr.Pages.clear_dirty a;
  Statemgr.Pages.clear_dirty b;
  notified_write b ~pos:(3 * 256) "b's own page 3";
  Statemgr.Merkle.update ta a (Statemgr.Pages.dirty a);
  Statemgr.Merkle.update tb b (Statemgr.Pages.dirty b);
  Alcotest.(check string) "the unwritten side's root holds" root0 (Statemgr.Merkle.root ta);
  Alcotest.(check bool) "the written side's root moves" false
    (String.equal root0 (Statemgr.Merkle.root tb));
  Alcotest.(check string) "a matches its pages" (oracle_root a) (Statemgr.Merkle.root ta);
  Alcotest.(check string) "b matches its pages" (oracle_root b) (Statemgr.Merkle.root tb)

(* [Merkle.build] hashes a node whose children are physically its right
   neighbour's only once. Zero pages share one leaf string and the filler
   past the last page shares another, so a sparse region of any size
   exercises the reuse; the root must still be the oracle's. *)
let prop_build_equals_oracle =
  let page_size = 32 in
  let write =
    let open QCheck.Gen in
    map3 (fun page zeros len -> (page, zeros, len)) small_nat bool (int_range 1 page_size)
  in
  QCheck.Test.make ~name:"build = fresh-page oracle (zero runs, any size)" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair int (list (triple int bool int)))
       QCheck.Gen.(pair (int_range 1 70) (list_size (int_bound 12) write)))
    (fun (num_pages, writes) ->
      let p = Statemgr.Pages.create ~page_size ~num_pages () in
      List.iter
        (fun (page, zeros, len) ->
          let page = page mod num_pages in
          (* A backed page of zeros has the zero page's digest but its own
             string: the reuse must not be fooled either way. *)
          let c = if zeros then '\000' else Char.chr (65 + (page mod 26)) in
          notified_write p ~pos:(page * page_size) (String.make len c))
        writes;
      String.equal (Statemgr.Merkle.root (Statemgr.Merkle.build p)) (oracle_root p))

let test_build_zero_run_hashes_one_node_per_level () =
  let p = make_pages () in
  ignore (Statemgr.Merkle.build p);
  let hashed = Crypto.Sha256.bytes_hashed () in
  let t = Statemgr.Merkle.build p in
  (* 16 untouched pages: the zero leaf is cached, and each of the four
     inner levels hashes one "node|" preimage of two 32-byte children. *)
  Alcotest.(check int) "one node per level" (4 * (5 + 64)) (Crypto.Sha256.bytes_hashed () - hashed);
  Alcotest.(check string) "root = fresh-page oracle" (oracle_root p) (Statemgr.Merkle.root t)

(* --- checkpoints --- *)

let test_checkpoint_roundtrip () =
  let p = make_pages () in
  notified_write p ~pos:0 "state at 10";
  let t = Statemgr.Merkle.build p in
  let ck = Statemgr.Checkpoint.take ~seqno:10 p t in
  Alcotest.(check int) "seqno" 10 (Statemgr.Checkpoint.seqno ck);
  Alcotest.(check string) "root matches" (Statemgr.Merkle.root t) (Statemgr.Checkpoint.root ck);
  (* Mutate, then restore. *)
  notified_write p ~pos:0 "DIVERGED!!!";
  notified_write p ~pos:512 "more";
  Statemgr.Merkle.update t p (Statemgr.Pages.dirty p);
  Statemgr.Checkpoint.restore ck p t;
  Alcotest.(check string) "state restored" "state at 10" (Statemgr.Pages.read p ~pos:0 ~len:11);
  Alcotest.(check string) "root restored" (Statemgr.Checkpoint.root ck) (Statemgr.Merkle.root t)

(* The restore takes the checkpoint tree's digests instead of rehashing
   the pages it put back. *)
let test_checkpoint_restore_hashes_nothing () =
  let p = make_pages () in
  notified_write p ~pos:0 "state at 10";
  notified_write p ~pos:(9 * 256) "page nine";
  let t = Statemgr.Merkle.build p in
  Statemgr.Pages.clear_dirty p;
  let ck = Statemgr.Checkpoint.take ~seqno:10 p t in
  notified_write p ~pos:0 "DIVERGED!!!";
  notified_write p ~pos:(9 * 256) "page 9 changed";
  notified_write p ~pos:(14 * 256) "new page";
  Statemgr.Merkle.update t p (Statemgr.Pages.dirty p);
  let hashed = Crypto.Sha256.bytes_hashed () in
  Statemgr.Checkpoint.restore ck p t;
  Alcotest.(check int) "no bytes hashed" hashed (Crypto.Sha256.bytes_hashed ());
  Alcotest.(check string) "root = checkpoint root" (Statemgr.Checkpoint.root ck)
    (Statemgr.Merkle.root t);
  Alcotest.(check string) "root = rebuilt root"
    (Statemgr.Merkle.root (Statemgr.Merkle.build p))
    (Statemgr.Merkle.root t);
  Alcotest.(check string) "root = fresh-page oracle" (oracle_root p) (Statemgr.Merkle.root t)

let test_checkpoint_snapshot_isolated () =
  let p = make_pages () in
  notified_write p ~pos:0 "before";
  let t = Statemgr.Merkle.build p in
  let ck = Statemgr.Checkpoint.take ~seqno:1 p t in
  notified_write p ~pos:0 "after!";
  Alcotest.(check string) "snapshot keeps old page" "before"
    (String.sub (Statemgr.Checkpoint.page ck 0) 0 6)

let test_root_of_leaves_matches_tree () =
  let p = make_pages () in
  notified_write p ~pos:100 "contents";
  notified_write p ~pos:(5 * 256) "more";
  let t = Statemgr.Merkle.build p in
  let leaves = List.init (Statemgr.Merkle.num_leaves t) (Statemgr.Merkle.leaf t) in
  Alcotest.(check string) "root recomputed from leaves"
    (Statemgr.Merkle.root t)
    (Statemgr.Merkle.root_of_leaves leaves);
  (* Tampering with any single claimed leaf digest changes the root: a
     Byzantine state-transfer peer cannot substitute pages. *)
  let tampered = List.mapi (fun i l -> if i = 5 then String.make 32 'e' else l) leaves in
  Alcotest.(check bool) "tampered leaf detected" false
    (String.equal (Statemgr.Merkle.root t) (Statemgr.Merkle.root_of_leaves tampered));
  Alcotest.(check string) "page digest matches leaf"
    (Statemgr.Merkle.leaf t 5)
    (Statemgr.Merkle.page_digest (Statemgr.Pages.page p 5))

(* --- tentative execution undo (speculative execution, §2.2) --- *)

(* A VFS whose main file is a window onto a Pages region (the §3.2
   arrangement), with a heap-backed journal: lets us drive the real
   relational pager across a checkpoint restore. *)
let mem_file () =
  let data = ref Bytes.empty in
  let ensure n =
    if Bytes.length !data < n then begin
      let b = Bytes.make n '\000' in
      Bytes.blit !data 0 b 0 (Bytes.length !data);
      data := b
    end
  in
  let read ~pos ~len =
    ensure (pos + len);
    Bytes.sub_string !data pos len
  in
  {
    Relsql.Vfs.read;
    view = read;
    write =
      (fun ~pos s ->
        ensure (pos + String.length s);
        Bytes.blit_string s 0 !data pos (String.length s));
    sync = (fun () -> ());
    size = (fun () -> Bytes.length !data);
    truncate = (fun n -> data := Bytes.sub !data 0 (min n (Bytes.length !data)));
  }

let pages_vfs pages =
  let capacity = Statemgr.Pages.total_size pages in
  {
    Relsql.Vfs.main =
      {
        Relsql.Vfs.read = (fun ~pos ~len -> Statemgr.Pages.read pages ~pos ~len);
        view =
          (fun ~pos ~len ->
            let ps = Statemgr.Pages.page_size pages in
            if len = ps && pos mod ps = 0 then Statemgr.Pages.page_view pages (pos / ps)
            else Statemgr.Pages.read pages ~pos ~len);
        write =
          (fun ~pos s ->
            Statemgr.Pages.notify_modify pages ~pos ~len:(String.length s);
            Statemgr.Pages.write pages ~pos s);
        sync = (fun () -> ());
        size = (fun () -> capacity);
        truncate = (fun _ -> ());
      };
    journal = Some (mem_file ());
    time = (fun () -> 0.0);
    random = (fun () -> 0L);
    cost = ref 0.0;
  }

(* Tentative execution with COW undo: snapshot, execute (dirtying pages
   through the real SQL pager), then roll back and check that the pages,
   the Merkle root, and the pager's view of the database (via refresh)
   all agree with the pre-speculation state. *)
(* The PR 6 speculation invariant, as a property: executing a speculative
   suffix against a COW undo snapshot, rolling it back, and re-executing
   whatever order actually committed must leave the region with a Merkle
   root identical to a replica that only ever executed the committed
   order serially. Random write batches stand in for request execution —
   the state layer cannot tell the difference. *)
let prop_speculate_rollback_reexecute =
  let num_pages = 8 and page_size = 128 in
  let apply pages tree batch =
    List.iter
      (fun (page, off, byte) ->
        let pos = ((page mod num_pages) * page_size) + (off mod page_size) in
        let s = String.make 1 (Char.chr (byte mod 256)) in
        Statemgr.Pages.notify_modify pages ~pos ~len:1;
        Statemgr.Pages.write pages ~pos s)
      batch;
    Statemgr.Merkle.update tree pages (Statemgr.Pages.dirty pages);
    Statemgr.Pages.clear_dirty pages
  in
  let batch_gen = QCheck.(small_list (triple small_nat small_nat small_nat)) in
  QCheck.Test.make ~name:"speculate -> rollback -> re-execute = serial execution" ~count:200
    QCheck.(triple batch_gen (small_list batch_gen) (small_list batch_gen))
    (fun (prefix, speculated, committed) ->
      (* Pipelined replica: prefix, snapshot, speculate, roll back,
         execute the committed batches. *)
      let pages = Statemgr.Pages.create ~page_size ~num_pages () in
      let tree = Statemgr.Merkle.build pages in
      apply pages tree prefix;
      let undo = Statemgr.Checkpoint.take_undo pages in
      List.iter (apply pages tree) speculated;
      Statemgr.Checkpoint.restore_undo undo pages tree;
      List.iter (apply pages tree) committed;
      (* Serial replica: the committed order only, no speculation. *)
      let pages' = Statemgr.Pages.create ~page_size ~num_pages () in
      let tree' = Statemgr.Merkle.build pages' in
      apply pages' tree' prefix;
      List.iter (apply pages' tree') committed;
      String.equal (Statemgr.Merkle.root tree) (Statemgr.Merkle.root tree'))

(* The undo guarding speculation: random writes, optionally folded into
   the tree mid-way the way a pipelined [take_pending_checkpoint] folds
   and clears the dirty set while the undo is held, some pages written
   back to their undo-time bytes, more writes, then the restore. The
   region must hold the undo's bytes, the tree must be current (root =
   fresh-page oracle) and the dirty set empty. *)
type undo_op =
  | U_write of int * int * string (* page, offset, bytes *)
  | U_revert of int (* the page's undo-time bytes, written back *)
  | U_fold

let show_undo_op = function
  | U_write (pg, off, s) -> Printf.sprintf "Write(%d, %d, %S)" pg off s
  | U_revert pg -> Printf.sprintf "Revert %d" pg
  | U_fold -> "Fold"

let prop_undo_restore_is_current =
  let num_pages = 8 and page_size = 64 in
  let op =
    let open QCheck.Gen in
    let page = int_bound (num_pages - 1) in
    frequency
      [
        ( 6,
          map3
            (fun pg off s -> U_write (pg, off, s))
            page (int_bound (page_size - 8))
            (string_size ~gen:printable (int_range 1 8)) );
        (2, map (fun pg -> U_revert pg) page);
        (1, return U_fold);
      ]
  in
  let ops = QCheck.Gen.list_size (QCheck.Gen.int_bound 30) op in
  QCheck.Test.make ~name:"undo restore through folds: bytes, root, dirty" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(triple (list show_undo_op) (list show_undo_op) (list show_undo_op))
       (QCheck.Gen.triple ops ops ops))
    (fun (folded, unfolded, after) ->
      let pages = Statemgr.Pages.create ~page_size ~num_pages () in
      let tree = Statemgr.Merkle.build pages in
      let images = ref [||] in
      let fold () =
        Statemgr.Merkle.update tree pages (Statemgr.Pages.dirty pages);
        Statemgr.Pages.clear_dirty pages
      in
      let step = function
        | U_write (pg, off, s) -> notified_write pages ~pos:((pg * page_size) + off) s
        | U_revert pg ->
          if !images <> [||] then notified_write pages ~pos:(pg * page_size) !images.(pg)
        | U_fold -> fold ()
      in
      (* Before the undo: some writes folded, some left dirty. *)
      List.iter step folded;
      fold ();
      List.iter step unfolded;
      images := Array.init num_pages (Statemgr.Pages.page pages);
      let undo = Statemgr.Checkpoint.take_undo pages in
      List.iter step after;
      Statemgr.Checkpoint.restore_undo undo pages tree;
      Array.for_all2 String.equal !images (Array.init num_pages (Statemgr.Pages.page pages))
      && String.equal (Statemgr.Merkle.root tree) (oracle_root pages)
      && Statemgr.Pages.dirty pages = [])

let test_take_undo_hashes_nothing () =
  let p = make_pages () in
  notified_write p ~pos:0 "folded";
  let t = Statemgr.Merkle.build p in
  Statemgr.Pages.clear_dirty p;
  notified_write p ~pos:(3 * 256) "dirty, not yet folded";
  let hashed = Crypto.Sha256.bytes_hashed () in
  let undo = Statemgr.Checkpoint.take_undo p in
  Alcotest.(check int) "no bytes hashed" hashed (Crypto.Sha256.bytes_hashed ());
  Alcotest.(check (list int)) "the dirty page stays dirty" [ 3 ] (Statemgr.Pages.dirty p);
  notified_write p ~pos:(5 * 256) "speculative";
  Statemgr.Checkpoint.restore_undo undo p t;
  Alcotest.(check string) "root = fresh-page oracle" (oracle_root p) (Statemgr.Merkle.root t);
  Alcotest.(check string) "page 5 back to zero" (String.make 256 '\000') (Statemgr.Pages.page p 5)

(* A page written after the undo, folded by a pending checkpoint and then
   written back to its undo-time bytes needs no restore — its bytes
   already match — but its leaf holds the folded digest. The page is
   dirty again, which is why the restore folds the whole dirty set and
   not just the pages it put back. *)
let test_undo_restore_refolds_written_back_page () =
  let p = make_pages () in
  notified_write p ~pos:(2 * 256) "original";
  let t = Statemgr.Merkle.build p in
  Statemgr.Pages.clear_dirty p;
  let undo = Statemgr.Checkpoint.take_undo p in
  notified_write p ~pos:(2 * 256) "speculat";
  Statemgr.Merkle.update t p (Statemgr.Pages.dirty p);
  Statemgr.Pages.clear_dirty p;
  notified_write p ~pos:(2 * 256) "original";
  let generation = Statemgr.Pages.generation p in
  Statemgr.Checkpoint.restore_undo undo p t;
  Alcotest.(check int) "nothing put back" generation (Statemgr.Pages.generation p);
  Alcotest.(check string) "root = fresh-page oracle" (oracle_root p) (Statemgr.Merkle.root t);
  Alcotest.(check (list int)) "dirty set empty" [] (Statemgr.Pages.dirty p)

let test_tentative_undo_cow () =
  let pages = Statemgr.Pages.create ~page_size:4096 ~num_pages:32 () in
  let pager = Relsql.Pager.open_pager (pages_vfs pages) in
  let fill tag =
    Relsql.Pager.begin_txn pager;
    let pg = Relsql.Pager.allocate_page pager in
    Relsql.Pager.write_page pager pg (tag ^ String.make (4096 - String.length tag) '.');
    Relsql.Pager.commit pager;
    pg
  in
  let committed_pg = fill "committed" in
  let tree = Statemgr.Merkle.build pages in
  Statemgr.Pages.clear_dirty pages;
  (* Undo snapshot before speculating. *)
  let undo = Statemgr.Checkpoint.take_undo pages in
  let root0 = Statemgr.Merkle.root tree in
  let images0 = List.init 32 (Statemgr.Pages.page pages) in
  let count0 = Relsql.Pager.page_count pager in
  (* Speculate: allocate and write more pages, fully committed at the SQL
     layer (tentative execution runs the real operation; undo is PBFT's). *)
  let spec_pg = fill "speculative" in
  Statemgr.Merkle.update tree pages (Statemgr.Pages.dirty pages);
  Statemgr.Pages.clear_dirty pages;
  Alcotest.(check bool) "speculation moved the root" false
    (String.equal root0 (Statemgr.Merkle.root tree));
  (* Roll back. *)
  Statemgr.Checkpoint.restore_undo undo pages tree;
  Relsql.Pager.refresh pager;
  Alcotest.(check string) "merkle root back to pre-speculation" root0
    (Statemgr.Merkle.root tree);
  List.iteri
    (fun i img ->
      Alcotest.(check string)
        (Printf.sprintf "page %d back to pre-speculation" i)
        img (Statemgr.Pages.page pages i))
    images0;
  Alcotest.(check int) "pager header rolled back" count0 (Relsql.Pager.page_count pager);
  Alcotest.(check string) "committed data survives" "committed"
    (String.sub (Relsql.Pager.read_page pager committed_pg) 0 9);
  (* The speculative page is unallocated again: the pager can hand the
     same page number out to the next transaction. *)
  Relsql.Pager.begin_txn pager;
  Alcotest.(check int) "speculative page number reusable" spec_pg
    (Relsql.Pager.allocate_page pager);
  Relsql.Pager.rollback pager

let () =
  Alcotest.run "statemgr"
    [
      ( "pages",
        [
          Alcotest.test_case "read/write" `Quick test_pages_rw;
          Alcotest.test_case "cross-page write" `Quick test_pages_cross_page_write;
          Alcotest.test_case "bounds" `Quick test_pages_bounds;
          Alcotest.test_case "strict notify contract (§3.2)" `Quick test_pages_strict_contract;
          Alcotest.test_case "unnotified write raises, writes nothing" `Quick
            test_pages_unnotified_write_raises;
          Alcotest.test_case "dirty tracking" `Quick test_pages_dirty_tracking;
          Alcotest.test_case "sparse allocation" `Quick test_pages_sparse_allocation;
          Alcotest.test_case "copy isolation" `Quick test_pages_copy_isolated;
          Alcotest.test_case "load_page" `Quick test_pages_load_page;
          Alcotest.test_case "alias a page range copy-on-write" `Quick test_pages_alias_range;
          Alcotest.test_case "page views and COW snapshots" `Quick test_pages_view_aliasing;
          qcheck prop_cow_matches_deep_copy_model;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "root changes on write" `Quick test_merkle_root_changes;
          Alcotest.test_case "diff identical" `Quick test_merkle_diff_identical;
          Alcotest.test_case "leaf access" `Quick test_merkle_leaf_access;
          Alcotest.test_case "non-power-of-two leaves" `Quick test_merkle_non_power_of_two;
          qcheck prop_merkle_update_equals_rebuild;
          qcheck prop_merkle_diff_finds_changes;
          Alcotest.test_case "alias, then write one side" `Quick
            test_memo_alias_then_write_one_side;
          qcheck prop_frozen_page_memo_sound;
          qcheck prop_build_equals_oracle;
          Alcotest.test_case "build hashes a zero run once per level" `Quick
            test_build_zero_run_hashes_one_node_per_level;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "take/restore roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "restore hashes nothing" `Quick test_checkpoint_restore_hashes_nothing;
          Alcotest.test_case "snapshot isolation" `Quick test_checkpoint_snapshot_isolated;
          Alcotest.test_case "root from claimed leaves (transfer verification)" `Quick
            test_root_of_leaves_matches_tree;
          Alcotest.test_case "tentative-execution undo via COW (§2.2)" `Quick
            test_tentative_undo_cow;
          qcheck prop_speculate_rollback_reexecute;
          Alcotest.test_case "take_undo hashes nothing" `Quick test_take_undo_hashes_nothing;
          Alcotest.test_case "undo restore refolds a written-back page" `Quick
            test_undo_restore_refolds_written_back_page;
          qcheck prop_undo_restore_is_current;
        ] );
    ]
