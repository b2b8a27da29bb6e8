(* Nodes are serialized whole into single pages; a split is triggered by
   encoded size, so fill factor adapts to entry sizes. On-page layout
   (u32 little-endian, varints LEB128, lstring = varint length + bytes):

     leaf      u8 0, u32 next, varint n, n x (lstring key, lstring value)
     interior  u8 1, varint n, n x lstring sep, varint n+1, (n+1) x varint child

   Lookups ([find], and the descent that starts [iter]) walk this encoding
   in place on a borrowed page view; writes decode a node, edit it and
   encode it once. *)

type node =
  | Leaf of { entries : (string * string) list; next : int }
  | Interior of { seps : string list; children : int list }

type t = { pager : Pager.t; mutable root_page : int }

let max_node_bytes = Pager.page_size - 256
let max_entry_bytes = max_node_bytes / 2

let corrupt what = raise (Pager.Corrupt ("btree " ^ what))

let encode_node node =
  let w = Util.Codec.W.create ~capacity:Pager.page_size () in
  (match node with
  | Leaf { entries; next } ->
    Util.Codec.W.u8 w 0;
    Util.Codec.W.u32 w next;
    Util.Codec.W.list w
      (fun w (k, v) ->
        Util.Codec.W.lstring w k;
        Util.Codec.W.lstring w v)
      entries
  | Interior { seps; children } ->
    Util.Codec.W.u8 w 1;
    Util.Codec.W.list w Util.Codec.W.lstring seps;
    Util.Codec.W.list w Util.Codec.W.varint children);
  w

let decode_node image =
  let r = Util.Codec.R.of_string image in
  try
    match Util.Codec.R.u8 r with
    | 0 ->
      let next = Util.Codec.R.u32 r in
      let entries =
        Util.Codec.R.list r (fun r ->
            let k = Util.Codec.R.lstring r in
            let v = Util.Codec.R.lstring r in
            (k, v))
      in
      Leaf { entries; next }
    | 1 ->
      let seps = Util.Codec.R.list r Util.Codec.R.lstring in
      let children = Util.Codec.R.list r Util.Codec.R.varint in
      Interior { seps; children }
    | _ -> corrupt "node tag"
  with Util.Codec.R.Truncated -> corrupt "node truncated"

(* decode_node copies every string out, so decoding a borrowed view is
   safe: nothing of the view survives the call. *)
let load t page = decode_node (Pager.view_page t.pager page)

(* One page image per node write: the encoding, zero-padded. *)
let write_node t page w =
  if Util.Codec.W.length w > Pager.page_size then corrupt "node overflow";
  Pager.write_page t.pager page (Util.Codec.W.contents_padded w Pager.page_size)

let store t page node = write_node t page (encode_node node)

(* --- reading a node in place ---

   A cursor over a borrowed page view. Every read is bounds-checked
   against the image, so a malformed page raises [Pager.Corrupt], never
   [Invalid_argument]; only the value a lookup returns is copied out. The
   loops are top-level recursive functions, not closures, so a probe
   allocates only its cursor and its result. *)

type cursor = { mutable img : string; mutable pos : int }

let u8 c =
  if c.pos >= String.length c.img then corrupt "node truncated";
  let b = Char.code c.img.[c.pos] in
  c.pos <- c.pos + 1;
  b

let skip_u32 c =
  if c.pos + 4 > String.length c.img then corrupt "node truncated";
  c.pos <- c.pos + 4

(* Same acceptance as Util.Codec.R.varint: at most 9 bytes, no overflow
   into the sign bit. *)
let rec varint_from c shift acc =
  if shift > 56 then corrupt "varint too long";
  let b = u8 c in
  if shift = 56 && b > 0x3f then corrupt "varint overflow";
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_from c (shift + 7) acc

(* One-byte varints (lengths under 128, small page numbers) skip the
   general loop. *)
let varint c =
  let p = c.pos in
  if p < String.length c.img && Char.code c.img.[p] < 0x80 then begin
    c.pos <- p + 1;
    Char.code c.img.[p]
  end
  else varint_from c 0 0

(* Step over [len] string bytes; returns where they start. *)
let span c len =
  if len > String.length c.img - c.pos then corrupt "string past page end";
  let off = c.pos in
  c.pos <- off + len;
  off

(* The sign of [String.compare key (String.sub img off len)], without the
   copy: bytewise, a proper prefix sorts first. Eight bytes at a time
   while both sides have them — an unsigned compare of big-endian words
   is the bytewise order — then byte by byte. *)
let rec compare_at key img off len i =
  if i + 8 <= String.length key && i + 8 <= len then begin
    let a = String.get_int64_be key i and b = String.get_int64_be img (off + i) in
    if Int64.equal a b then compare_at key img off len (i + 8) else Int64.unsigned_compare a b
  end
  else compare_tail key img off len i

and compare_tail key img off len i =
  if i = String.length key then if i = len then 0 else -1
  else if i = len then 1
  else begin
    let a = key.[i] and b = img.[off + i] in
    if Char.equal a b then compare_tail key img off len (i + 1) else Char.compare a b
  end

let rec skip_strings c n =
  if n > 0 then begin
    ignore (span c (varint c));
    skip_strings c (n - 1)
  end

(* Skipped varints are only delimited (a byte below 0x80 ends one), not
   decoded; the one a lookup uses is read with [varint]. *)
let rec skip_varints_from img pos n =
  if n = 0 then pos
  else if pos >= String.length img then corrupt "node truncated"
  else skip_varints_from img (pos + 1) (if Char.code img.[pos] < 0x80 then n - 1 else n)

let skip_varints c n = c.pos <- skip_varints_from c.img c.pos n

(* The value stored under [key] in a leaf whose entry count [n] was just
   read. Entries are sorted, so the scan stops at the first larger key. *)
let rec leaf_find c key n =
  if n = 0 then None
  else begin
    let klen = varint c in
    let koff = span c klen in
    let vlen = varint c in
    let voff = span c vlen in
    let cmp = compare_at key c.img koff klen 0 in
    if cmp = 0 then Some (String.sub c.img voff vlen)
    else if cmp < 0 then None
    else leaf_find c key (n - 1)
  end

(* Child slot for [key] among the [n] separators of an interior node: the
   first separator > key goes left of it; equal keys descend right
   (separators are copied-up leaf keys, the right child holds keys >=
   sep). Leaves the cursor past the last separator. *)
let rec sep_slot c key i n =
  if i = n then i
  else begin
    let len = varint c in
    let off = span c len in
    if compare_at key c.img off len 0 < 0 then begin
      skip_strings c (n - i - 1);
      i
    end
    else sep_slot c key (i + 1) n
  end

(* With the cursor past the separators: the page number of child [slot]. *)
let child_at c slot =
  let n = varint c in
  if slot >= n then corrupt "child index out of range";
  skip_varints c slot;
  varint c

(* Point the cursor at the start of [img]. A descent visits distinct
   pages, so one longer than the page count has met a corrupt child
   pointer that loops back. *)
let enter c t img depth =
  if depth > Pager.page_count t.pager then corrupt "descent loops";
  c.img <- img;
  c.pos <- 0

let rec find_in c t page key depth =
  enter c t (Pager.view_page t.pager page) depth;
  match u8 c with
  | 0 ->
    skip_u32 c;
    leaf_find c key (varint c)
  | 1 ->
    let slot = sep_slot c key 0 (varint c) in
    find_in c t (child_at c slot) key (depth + 1)
  | _ -> corrupt "node tag"

let find t key = find_in { img = ""; pos = 0 } t t.root_page key 0

let create pager =
  let page = Pager.allocate_page pager in
  let t = { pager; root_page = page } in
  store t page (Leaf { entries = []; next = 0 });
  t

let open_tree pager ~root = { pager; root_page = root }
let root t = t.root_page

(* The same routing rule over a decoded node, for the write paths. *)
let child_index seps key =
  let rec go i = function
    | [] -> i
    | sep :: rest -> if String.compare key sep < 0 then i else go (i + 1) rest
  in
  go 0 seps

(* Where to split a full node's items: the count midpoint, unless skewed
   item sizes would leave a half too big for its page ([fits] says
   whether the two halves of a split fit) — then wherever the larger
   half is smallest, which fits because no item exceeds
   [max_entry_bytes]. *)
let split_index arr ~size ~fits =
  let n = Array.length arr in
  let mid = n / 2 in
  if fits mid then mid
  else begin
    let total = Array.fold_left (fun acc x -> acc + size x) 0 arr in
    let best = ref mid and best_max = ref max_int and left = ref 0 in
    for k = 1 to n - 1 do
      left := !left + size arr.(k - 1);
      let larger = Int.max !left (total - !left) in
      if larger < !best_max then begin
        best := k;
        best_max := larger
      end
    done;
    !best
  end

let encoded_bytes node = Util.Codec.W.length (encode_node node)

(* Insert; returns Some (separator, right page) if the node split. *)
let rec insert_in t page key value =
  match load t page with
  | Leaf { entries; next } ->
    let entries =
      let rec place = function
        | [] -> [ (key, value) ]
        | (k, v) :: rest ->
          let c = String.compare key k in
          if c = 0 then (key, value) :: rest
          else if c < 0 then (key, value) :: (k, v) :: rest
          else (k, v) :: place rest
      in
      place entries
    in
    let w = encode_node (Leaf { entries; next }) in
    if Util.Codec.W.length w <= max_node_bytes then begin
      write_node t page w;
      None
    end
    else begin
      let arr = Array.of_list entries in
      let halves mid =
        (Array.to_list (Array.sub arr 0 mid), Array.to_list (Array.sub arr mid (Array.length arr - mid)))
      in
      let fits mid =
        let left, right = halves mid in
        encoded_bytes (Leaf { entries = left; next }) <= Pager.page_size
        && encoded_bytes (Leaf { entries = right; next }) <= Pager.page_size
      in
      let left, right =
        halves (split_index arr ~size:(fun (k, v) -> String.length k + String.length v) ~fits)
      in
      let right_page = Pager.allocate_page t.pager in
      store t right_page (Leaf { entries = right; next });
      store t page (Leaf { entries = left; next = right_page });
      Some (fst (List.hd right), right_page)
    end
  | Interior { seps; children } ->
    let idx = child_index seps key in
    let child = List.nth children idx in
    (match insert_in t child key value with
    | None -> None
    | Some (sep, right_page) ->
      let seps = List.filteri (fun i _ -> i < idx) seps @ (sep :: List.filteri (fun i _ -> i >= idx) seps) in
      let children =
        List.filteri (fun i _ -> i <= idx) children
        @ (right_page :: List.filteri (fun i _ -> i > idx) children)
      in
      let w = encode_node (Interior { seps; children }) in
      if Util.Codec.W.length w <= max_node_bytes then begin
        write_node t page w;
        None
      end
      else begin
        let sarr = Array.of_list seps and carr = Array.of_list children in
        (* The separator at [mid] moves up; each half keeps its children. *)
        let halves mid =
          let sub a lo hi = Array.to_list (Array.sub a lo (hi - lo)) in
          ( Interior { seps = sub sarr 0 mid; children = sub carr 0 (mid + 1) },
            Interior
              {
                seps = sub sarr (mid + 1) (Array.length sarr);
                children = sub carr (mid + 1) (Array.length carr);
              } )
        in
        let fits mid =
          let left, right = halves mid in
          encoded_bytes left <= Pager.page_size && encoded_bytes right <= Pager.page_size
        in
        let mid = split_index sarr ~size:String.length ~fits in
        let left, right = halves mid in
        let right_pg = Pager.allocate_page t.pager in
        store t right_pg right;
        store t page left;
        Some (sarr.(mid), right_pg)
      end)

let insert t ~key ~value =
  if String.length key + String.length value > max_entry_bytes then
    invalid_arg "Btree.insert: entry too large (no overflow pages)";
  match insert_in t t.root_page key value with
  | None -> ()
  | Some (sep, right_page) ->
    let new_root = Pager.allocate_page t.pager in
    store t new_root (Interior { seps = [ sep ]; children = [ t.root_page; right_page ] });
    t.root_page <- new_root

let rec delete_in t page key =
  match load t page with
  | Leaf { entries; next } ->
    if List.mem_assoc key entries then begin
      store t page (Leaf { entries = List.remove_assoc key entries; next });
      true
    end
    else false
  | Interior { seps; children } -> delete_in t (List.nth children (child_index seps key)) key

let delete t key = delete_in t t.root_page key

(* Descend to the leaf that would hold [key] (or the leftmost). Interior
   pages are genuine traversal work and count as touches; the leaf itself
   is charged by the caller only if it yields entries — deletion is lazy,
   so long-lived trees accumulate empty leaves that a range scan must
   step over but should not be billed for. *)
let rec descend_leaf c t page key depth =
  enter c t (Pager.view_page_quiet t.pager page) depth;
  match u8 c with
  | 0 -> page
  | 1 ->
    Pager.touch_page t.pager page;
    let nseps = varint c in
    let slot =
      match key with
      | None ->
        skip_strings c nseps;
        0
      | Some k -> sep_slot c k 0 nseps
    in
    descend_leaf c t (child_at c slot) key (depth + 1)
  | _ -> corrupt "node tag"

(* Each leaf is decoded before the callback runs, so [f] sees copies and
   may write the tree. Like a descent, the leaf chain visits distinct
   pages: a walk longer than the page count is a corrupt [next] cycle. *)
let iter t ?from ?upto f =
  let start = descend_leaf { img = ""; pos = 0 } t t.root_page from 0 in
  let rec walk page steps =
    if page <> 0 then begin
      if steps > Pager.page_count t.pager then corrupt "leaf chain cycle";
      match decode_node (Pager.view_page_quiet t.pager page) with
      | Interior _ -> corrupt "leaf chain reached interior node"
      | Leaf { entries; next } ->
        if entries <> [] then Pager.touch_page t.pager page;
        let continue =
          List.for_all
            (fun (k, v) ->
              match (from, upto) with
              | Some lo, _ when String.compare k lo < 0 -> true
              | _, Some hi when String.compare k hi > 0 -> false
              | _ -> f k v)
            entries
        in
        (* A leaf ending above [upto] already returned false above; only
           chains still inside the bound keep walking. *)
        if continue then walk next (steps + 1)
    end
  in
  walk start 0

let count t =
  let n = ref 0 in
  iter t (fun _ _ ->
      incr n;
      true);
  !n

let rec free_subtree t page =
  (match load t page with
  | Leaf _ -> ()
  | Interior { children; _ } -> List.iter (free_subtree t) children);
  Pager.free_page t.pager page

let drop t = free_subtree t t.root_page
