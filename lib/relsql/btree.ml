(* Nodes are serialized whole into single pages; a split is triggered by
   encoded size, so fill factor adapts to entry sizes. On-page layout
   (u32 little-endian, varints LEB128, lstring = varint length + bytes):

     leaf      u8 0, u32 next, varint n, n x (lstring key, lstring value)
     interior  u8 1, varint n, n x lstring sep, varint n+1, (n+1) x varint child

   Reads walk this encoding in place. [find_many] routes a sorted batch
   of keys down the tree on borrowed page views, visiting each node once
   for the keys that pass through it ([find] is a batch of one). [iter]
   finds each leaf's entries in range on the view, copies that run of
   the page once and yields copies of its keys and values from there.
   Inserts and deletes descend on the views too and edit the encoding of
   the node they change: its new image is assembled from runs of the old
   one and the changed bytes. Only a node that must split is decoded and
   encoded; so are the nodes [create] writes and [drop] frees. *)

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

   A cursor over a page image: a borrowed view, or [iter]'s copy of a
   leaf. Every read is bounds-checked against the image, so a malformed
   page raises [Pager.Corrupt], never [Invalid_argument]; only the keys
   and values a read returns are copied out. The loops are top-level
   recursive functions, not closures. *)

type cursor = { mutable img : string; mutable pos : int }

let u8 c =
  if c.pos >= String.length c.img then corrupt "node truncated";
  let b = Char.code c.img.[c.pos] in
  c.pos <- c.pos + 1;
  b

let u32 c =
  if c.pos + 4 > String.length c.img then corrupt "node truncated";
  let v = Int32.to_int (String.get_int32_le c.img c.pos) land 0xffff_ffff in
  c.pos <- c.pos + 4;
  v

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

(* Step over the leaf entry at the cursor; the sign of
   [String.compare b key] for the bound [Some b], 0 for [None]. *)
let compare_entry c bound =
  let klen = varint c in
  let koff = span c klen in
  ignore (span c (varint c));
  match bound with Some b -> compare_at b c.img koff klen 0 | None -> 0

(* Of the [m] leaf entries at the cursor, step over those below [from];
   returns how many are left, the cursor at the first of them. *)
let rec skip_below c from m =
  if m = 0 || Option.is_none from then m
  else begin
    let start = c.pos in
    if compare_entry c from > 0 then skip_below c from (m - 1)
    else begin
      c.pos <- start;
      m
    end
  end

(* --- batched lookup ---

   [find_many] routes a run of strictly ascending keys down the tree
   together, borrowing each node on the way once for the run of keys
   routed to it. At an interior node, one pass merges the separators
   against the run and records each key's child slot; a second, monotone
   pass over the child page numbers visits each child once for the keys
   routed to it. A leaf is merged against its run. A run is the first
   [n] keys of a list, and every step returns the keys after its run. A
   lookup allocates its cursor, one slot array per interior node visited
   and the values it returns. *)

(* Each of the first [n] keys is absent. *)
let rec absent keys n f =
  match keys with
  | key :: rest when n > 0 ->
    f key None;
    absent rest (n - 1) f
  | _ -> keys

(* Merge a run of [n] keys against the [m] entries of a leaf still
   unread at the cursor. *)
let rec leaf_merge c keys n m f =
  if n = 0 then keys
  else if m = 0 then absent keys n f
  else begin
    let klen = varint c in
    let koff = span c klen in
    let vlen = varint c in
    let voff = span c vlen in
    leaf_match c keys n (m - 1) f koff klen voff vlen
  end

(* The run against one entry: a smaller key is absent, an equal key
   takes the entry's value, a larger key moves on to the next entry. *)
and leaf_match c keys n m f koff klen voff vlen =
  match keys with
  | key :: rest when n > 0 ->
    let cmp = compare_at key c.img koff klen 0 in
    if cmp > 0 then leaf_merge c keys n m f
    else if cmp = 0 then begin
      f key (Some (String.sub c.img voff vlen));
      leaf_merge c rest (n - 1) m f
    end
    else begin
      f key None;
      leaf_match c rest (n - 1) m f koff klen voff vlen
    end
  | _ -> keys

(* Route the run's keys from [j] on against separator [i], at [off] and
   [len], and the separators after it, by [sep_slot]'s rule: a key below
   separator [i] goes to slot [i]. [slots] starts filled with [nseps],
   the slot of keys past every separator. Once the run is routed the
   remaining separators are only stepped over; the cursor ends past the
   last one. *)
let rec route c keys slots j n i nseps off len =
  match keys with
  | key :: rest when j < n ->
    if compare_at key c.img off len 0 < 0 then begin
      slots.(j) <- i;
      route c rest slots (j + 1) n i nseps off len
    end
    else if i + 1 < nseps then begin
      let len = varint c in
      let off = span c len in
      route c keys slots j n (i + 1) nseps off len
    end
  | _ -> skip_strings c (nseps - i - 1)

(* The length of the run of equal slots that starts at [j]. *)
let rec same_slot slots j n k =
  if j + k < n && slots.(j + k) = slots.(j) then same_slot slots j n (k + 1) else k

let rec find_node c t page keys n depth f =
  enter c t (Pager.view_page t.pager page) depth;
  match u8 c with
  | 0 ->
    ignore (u32 c);
    leaf_merge c keys n (varint c) f
  | 1 ->
    let img = c.img in
    let nseps = varint c in
    let slots = Array.make n nseps in
    if nseps > 0 then begin
      let len = varint c in
      let off = span c len in
      route c keys slots 0 n 0 nseps off len
    end;
    if varint c <> nseps + 1 then corrupt "child count";
    visit_children c t img depth f keys slots 0 n c.pos 0
  | _ -> corrupt "node tag"

(* Visit, in slot order, each child of the interior node [img] that keys
   [j] on were routed to; child [at]'s page number starts at [child]. *)
and visit_children c t img depth f keys slots j n child at =
  if j = n then keys
  else begin
    let slot = slots.(j) in
    let run = same_slot slots j n 1 in
    c.img <- img;
    c.pos <- skip_varints_from img child (slot - at);
    let page = varint c in
    let next = c.pos in
    let rest = find_node c t page keys run (depth + 1) f in
    visit_children c t img depth f rest slots (j + run) n next (slot + 1)
  end

let rec ascending = function
  | a :: (b :: _ as rest) -> String.compare a b < 0 && ascending rest
  | _ -> true

let find_many t keys f =
  if not (ascending keys) then invalid_arg "Btree.find_many: keys not strictly ascending";
  match keys with
  | [] -> ()
  | _ -> ignore (find_node { img = ""; pos = 0 } t t.root_page keys (List.length keys) 0 f)

let find t key =
  let found = ref None in
  find_many t [ key ] (fun _ v -> found := v);
  !found

let create pager =
  let page = Pager.allocate_page pager in
  let t = { pager; root_page = page } in
  store t page (Leaf { entries = []; next = 0 });
  t

let open_tree pager ~root = { pager; root_page = root }
let root t = t.root_page

(* --- splitting a node ---

   A node that outgrows [max_node_bytes] is decoded and split whole; the
   edit that overflowed it is applied to the decoded node first. A
   parent takes its child's new separator the same way. *)

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

(* Returns the separator (the right half's first key) and the new right
   page. *)
let split_leaf t page entries next =
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

let rec place key value = function
  | [] -> [ (key, value) ]
  | (k, v) :: rest ->
    let c = String.compare key k in
    if c = 0 then (key, value) :: rest
    else if c < 0 then (key, value) :: (k, v) :: rest
    else (k, v) :: place key value rest

let rec insert_at i x l =
  match l with
  | y :: rest when i > 0 -> y :: insert_at (i - 1) x rest
  | _ -> x :: l

(* The child in [slot] of interior node [page] split off [right]: add
   [sep] as separator [slot] and [right] as child [slot + 1], splitting
   the node if it no longer fits. The node is read again, since the
   child's writes ended the view the descent used. *)
let add_child t page slot sep right =
  match load t page with
  | Leaf _ -> corrupt "node tag"
  | Interior { seps; children } ->
    let seps = insert_at slot sep seps and children = insert_at (slot + 1) right children in
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
    end

(* --- editing a node in place ---

   An insert or delete that leaves its node within [max_node_bytes] edits
   the encoding, not a decoded node: the new image is assembled in one
   zeroed page-sized buffer from runs of the borrowed old image and the
   bytes that change, so it is exactly the encoding of the edited node.
   Each [put] writes at [pos] and returns the position after. *)

let rec varint_len v = if v < 0x80 then 1 else 1 + varint_len (v lsr 7)
let lstring_len s = varint_len (String.length s) + String.length s

let rec put_varint b pos v =
  if v < 0x80 then begin
    Bytes.set b pos (Char.chr v);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.chr (0x80 lor (v land 0x7f)));
    put_varint b (pos + 1) (v lsr 7)
  end

let put_run b pos img off len =
  Bytes.blit_string img off b pos len;
  pos + len

let put_lstring b pos s = put_run b (put_varint b pos (String.length s)) s 0 (String.length s)

(* The buffer is never touched once written. *)
let write_image t page b = Pager.write_page t.pager page (Bytes.unsafe_to_string b)

(* Tag and next-leaf pointer. *)
let leaf_header = 5

(* Write [page] as the leaf at the cursor with its entries [at, after)
   replaced by [entry], [n] entries in all. The old entries start at
   [counted] and end at the cursor. *)
let write_leaf c t page ~n ~counted ~at ~after entry =
  let b = Bytes.make Pager.page_size '\000' in
  let p = put_run b 0 c.img 0 leaf_header in
  let p = put_varint b p n in
  let p = put_run b p c.img counted (at - counted) in
  let p = match entry with Some (k, v) -> put_lstring b (put_lstring b p k) v | None -> p in
  ignore (put_run b p c.img after (c.pos - after));
  write_image t page b

(* The cursor past a leaf's tag: find [key]'s slot. Returns the entry
   count, where the entries start, and where [key]'s entry starts and
   ends (both where it would go if absent); the cursor ends past the
   last entry. *)
let leaf_slot c key =
  ignore (u32 c);
  let n = varint c in
  let counted = c.pos in
  let left = skip_below c (Some key) n in
  let at = c.pos in
  let found = left > 0 && Int.equal (compare_entry c (Some key)) 0 in
  if not found then c.pos <- at;
  let after = c.pos in
  skip_strings c (2 * if found then left - 1 else left);
  (n, counted, at, after)

(* The cursor past a leaf's tag: insert or replace [key]'s entry. *)
let insert_leaf c t page key value =
  let n, counted, at, after = leaf_slot c key in
  let n = if after > at then n else n + 1 in
  let len =
    leaf_header + varint_len n + (at - counted) + lstring_len key + lstring_len value
    + (c.pos - after)
  in
  if len <= max_node_bytes then begin
    write_leaf c t page ~n ~counted ~at ~after (Some (key, value));
    None
  end
  else
    match decode_node c.img with
    | Leaf { entries; next } -> split_leaf t page (place key value entries) next
    | Interior _ -> corrupt "node tag"

(* Insert; returns Some (separator, right page) if the node split. The
   path is descended on borrowed views. *)
let rec insert_in c t page key value depth =
  enter c t (Pager.view_page t.pager page) depth;
  match u8 c with
  | 0 -> insert_leaf c t page key value
  | 1 ->
    let nseps = varint c in
    let slot = sep_slot c key 0 nseps in
    (match insert_in c t (child_at c slot) key value (depth + 1) with
    | None -> None
    | Some (sep, right) -> add_child t page slot sep right)
  | _ -> corrupt "node tag"

let insert t ~key ~value =
  if String.length key + String.length value > max_entry_bytes then
    invalid_arg "Btree.insert: entry too large (no overflow pages)";
  match insert_in { img = ""; pos = 0 } t t.root_page key value 0 with
  | None -> ()
  | Some (sep, right_page) ->
    let new_root = Pager.allocate_page t.pager in
    store t new_root (Interior { seps = [ sep ]; children = [ t.root_page; right_page ] });
    t.root_page <- new_root

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

(* A delete charges a page touch for every node on its path, the leaf
   included, as an insert does. *)
let delete t key =
  let c = { img = ""; pos = 0 } in
  let page = descend_leaf c t t.root_page (Some key) 0 in
  Pager.touch_page t.pager page;
  let n, counted, at, after = leaf_slot c key in
  let found = after > at in
  if found then write_leaf c t page ~n:(n - 1) ~counted ~at ~after None;
  found

(* A leaf's entries are scanned in two passes. The first runs on the
   borrowed view, with no callback: it steps over the keys below [from]
   and finds the run of entries up to [upto]. That run alone is copied,
   and the second pass hands [f] copies of its keys and values from the
   private copy, so [f] may write the tree. *)

(* How many of the [m] entries at the cursor are not above [upto]; the
   cursor ends past them. *)
let rec count_upto c upto m k =
  if k = m then k
  else begin
    let start = c.pos in
    if compare_entry c upto < 0 then begin
      c.pos <- start;
      k
    end
    else count_upto c upto m (k + 1)
  end

(* Pass [n] entries at the cursor to [f]; false once [f] says stop. *)
let rec yield c f n =
  n = 0
  ||
  let klen = varint c in
  let koff = span c klen in
  let vlen = varint c in
  let voff = span c vlen in
  (* An index entry's value is empty: hand out the shared "". *)
  let value = if vlen = 0 then "" else String.sub c.img voff vlen in
  f (String.sub c.img koff klen) value && yield c f (n - 1)

(* Like a descent, the leaf chain visits distinct pages: a walk longer
   than the page count is a corrupt [next] cycle. *)
let rec walk_leaves c t from upto f page steps =
  if page <> 0 then begin
    if steps > Pager.page_count t.pager then corrupt "leaf chain cycle";
    c.img <- Pager.view_page_quiet t.pager page;
    c.pos <- 0;
    match u8 c with
    | 0 ->
      let next = u32 c in
      let m = varint c in
      if m > 0 then Pager.touch_page t.pager page;
      let left = skip_below c from m in
      let start = c.pos in
      let n = count_upto c upto left 0 in
      c.img <- String.sub c.img start (c.pos - start);
      c.pos <- 0;
      (* A key above [upto] ends the scan; only chains still inside the
         bound keep walking. *)
      if yield c f n && n = left then walk_leaves c t from upto f next (steps + 1)
    | 1 -> corrupt "leaf chain reached interior node"
    | _ -> corrupt "node tag"
  end

let iter t ?from ?upto f =
  let c = { img = ""; pos = 0 } in
  walk_leaves c t from upto f (descend_leaf c t t.root_page from 0) 0

let rec free_subtree t page =
  (match load t page with
  | Leaf _ -> ()
  | Interior { children; _ } -> List.iter (free_subtree t) children);
  Pager.free_page t.pager page

let drop t = free_subtree t t.root_page
