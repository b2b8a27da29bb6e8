(* Implicit perfect binary tree over [2^k >= num_pages] leaves stored in a
   flat array: node i has children 2i+1, 2i+2; leaves occupy the last
   [width] slots. Missing leaves (beyond num_pages) hash a fixed filler.

   Hashing is zero-copy: page bytes are fed straight into a streaming
   SHA-256 context after the "leaf|" framing prefix, so the preimages are
   exactly the historical ["leaf|" ^ contents] / ["node|" ^ l ^ r]
   strings but no intermediate concatenations are allocated. *)

(* [zero] is the leaf digest of an all-zero page, hashed the first time
   this tree meets an untouched page ("" until then). *)
type t = { width : int; leaves : int; nodes : string array; mutable zero : string }

let leaf_prefix = "leaf|"
let node_prefix = "node|"

(* Every leaf and node digest is computed start to finish in one call, so
   one context serves them all instead of a fresh one per hash.
   Single-domain only, like [Crypto.Sha256]'s own scratch context. *)
let scratch = Crypto.Sha256.init ()
[@@detlint.allow toplevel_mutable "scratch state, reset on every use; goes for multi-domain seeds (ROADMAP item 20)"]

let fresh_ctx () =
  Crypto.Sha256.reset scratch;
  scratch

let hash_page contents =
  let ctx = fresh_ctx () in
  Crypto.Sha256.feed ctx leaf_prefix;
  Crypto.Sha256.feed ctx contents;
  Crypto.Sha256.finalize ctx

let hash_page_bytes b =
  let ctx = fresh_ctx () in
  Crypto.Sha256.feed ctx leaf_prefix;
  Crypto.Sha256.feed_bytes ctx b ~pos:0 ~len:(Bytes.length b);
  Crypto.Sha256.finalize ctx

(* Untouched pages of a sparse region all share one digest, so a tree
   hashes the zero page once; copies of the tree inherit it. *)
let zero_leaf t pages =
  if String.equal t.zero "" then t.zero <- hash_page (String.make (Pages.page_size pages) '\000');
  t.zero

(* Leaf digests of frozen buffers (see [Pages.frozen_page_bytes]): a
   direct-mapped table indexed by page number, confirmed by the buffer's
   physical identity. Every replica's pages alias one boot image, so the
   first replica's genesis update hashes it and the rest hit here; so do
   pages [Pages.restore_page] installs. 4,096 slots hold every page of
   the largest region a workload builds (2,052 pages) without a
   collision. Single-domain only. *)
let memo_slots = 4096
let memo_buf = Array.make memo_slots Bytes.empty
[@@detlint.allow toplevel_mutable "memo of a pure function; goes for multi-domain seeds (ROADMAP item 20)"]
let memo_digest = Array.make memo_slots ""
[@@detlint.allow toplevel_mutable "memo of a pure function; goes for multi-domain seeds (ROADMAP item 20)"]

let leaf_digest_of_page t pages i =
  match Pages.frozen_page_bytes pages i with
  | Some b ->
    let slot = i land (memo_slots - 1) in
    (* Pointer equality on purpose: a frozen buffer's bytes never change,
       and a miss on an equal-but-distinct buffer only costs a rehash. *)
    if (memo_buf.(slot) == b) [@detlint.allow physical_eq] then memo_digest.(slot)
    else begin
      let d = hash_page_bytes b in
      memo_buf.(slot) <- b;
      memo_digest.(slot) <- d;
      d
    end
  | None -> (
    match Pages.page_bytes pages i with
    | None -> zero_leaf t pages
    | Some b -> hash_page_bytes b)

let hash_children l r =
  let ctx = fresh_ctx () in
  Crypto.Sha256.feed ctx node_prefix;
  Crypto.Sha256.feed ctx l;
  Crypto.Sha256.feed ctx r;
  Crypto.Sha256.finalize ctx

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let empty_leaf = Crypto.Sha256.digest "empty-leaf"

let leaf_index t i = t.width - 1 + i

let build pages =
  let leaves = Pages.num_pages pages in
  let width = pow2_at_least leaves 1 in
  let nodes = Array.make ((2 * width) - 1) "" in
  let t = { width; leaves; nodes; zero = "" } in
  for i = 0 to width - 1 do
    nodes.(width - 1 + i) <-
      (if i < leaves then leaf_digest_of_page t pages i else empty_leaf)
  done;
  for i = width - 2 downto 0 do
    let l = nodes.((2 * i) + 1) and r = nodes.((2 * i) + 2) in
    (* Untouched pages share one zero-leaf string and the filler shares
       [empty_leaf], so runs of identical subtrees share their digest
       strings too: a node whose children are physically its right
       neighbour's has that neighbour's digest. *)
    nodes.(i) <-
      (if i < width - 2 && (l == nodes.((2 * i) + 3) && r == nodes.((2 * i) + 4))
            [@detlint.allow physical_eq]
       then nodes.(i + 1)
       else hash_children l r)
  done;
  t

let update t pages dirty =
  let touched = Hashtbl.create 16 in
  List.iter
    (fun i ->
      if i < 0 || i >= t.leaves then invalid_arg "Merkle.update";
      t.nodes.(leaf_index t i) <- leaf_digest_of_page t pages i;
      (* Record every ancestor for recomputation. *)
      let rec mark j =
        if j > 0 then begin
          let parent = (j - 1) / 2 in
          Hashtbl.replace touched parent ();
          mark parent
        end
      in
      mark (leaf_index t i))
    dirty;
  (* Recompute ancestors bottom-up: iterate indices descending. *)
  let idxs = List.rev (Util.Sorted_tbl.keys touched) in
  List.iter (fun i -> t.nodes.(i) <- hash_children t.nodes.((2 * i) + 1) t.nodes.((2 * i) + 2)) idxs

let root t = t.nodes.(0)

let leaf t i =
  if i < 0 || i >= t.leaves then invalid_arg "Merkle.leaf";
  t.nodes.(leaf_index t i)

let num_leaves t = t.leaves

let diff a b =
  if a.width <> b.width then invalid_arg "Merkle.diff: shape mismatch";
  let visited = ref 0 in
  let divergent = ref [] in
  let rec walk i =
    incr visited;
    if not (String.equal a.nodes.(i) b.nodes.(i)) then begin
      if i >= a.width - 1 then begin
        let li = i - (a.width - 1) in
        if li < a.leaves then divergent := li :: !divergent
      end
      else begin
        walk ((2 * i) + 1);
        walk ((2 * i) + 2)
      end
    end
  in
  walk 0;
  (List.rev !divergent, !visited)

let root_of_leaves leaves =
  let n = List.length leaves in
  let width = pow2_at_least (Int.max n 1) 1 in
  let level = Array.make width empty_leaf in
  List.iteri (fun i l -> level.(i) <- l) leaves;
  let rec reduce level =
    if Array.length level = 1 then level.(0)
    else begin
      let next = Array.init (Array.length level / 2) (fun i ->
          hash_children level.(2 * i) level.((2 * i) + 1))
      in
      reduce next
    end
  in
  reduce level

let page_digest contents = hash_page contents

let copy t = { t with nodes = Array.copy t.nodes }

let copy_into src ~dst =
  if src.width <> dst.width || src.leaves <> dst.leaves then
    invalid_arg "Merkle.copy_into: shape mismatch";
  Array.blit src.nodes 0 dst.nodes 0 (Array.length src.nodes)
