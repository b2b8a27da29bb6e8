exception Unnotified_write of int

(* Process-wide instrumentation: bytes physically copied by the
   copy-on-write machinery (lazy page duplication on the first write
   after a snapshot) and snapshots taken. Sampled by the host benchmark
   the same way Crypto.Sha256.bytes_hashed is. *)
let cow_bytes_total = ref 0
let snapshots_total = ref 0
let bytes_copied () = !cow_bytes_total
let snapshots_taken () = !snapshots_total

type t = {
  page_size : int;
  num_pages : int;
  strict : bool;
  slots : Bytes.t option array; (* None = untouched zero page *)
  shared : bool array; (* slot aliased by a snapshot: copy before writing *)
  zero : string; (* the one shared all-zero page handed out by [page_view] *)
  mutable dirty_set : (int, unit) Hashtbl.t;
  mutable generation : int;
      (* bumped on every wholesale page install (load_page/restore_page):
         state transfer, checkpoint restore, speculation rollback. Caches
         of decoded region contents compare it to skip re-decoding. *)
}

type snapshot = {
  snap_page_size : int;
  snap_slots : Bytes.t option array;
      (* aliases of the region's buffers at snapshot time; never mutated
         (any later write to the live region copies the page first) *)
}

let create ?(strict = false) ~page_size ~num_pages () =
  if page_size <= 0 || num_pages <= 0 then invalid_arg "Pages.create";
  {
    page_size;
    num_pages;
    strict;
    slots = Array.make num_pages None;
    shared = Array.make num_pages false;
    zero = String.make page_size '\000';
    dirty_set = Hashtbl.create 64;
    generation = 0;
  }

let generation t = t.generation

let page_size t = t.page_size
let num_pages t = t.num_pages
let total_size t = t.page_size * t.num_pages

let check_range t pos len =
  if pos < 0 || len < 0 || pos + len > total_size t then invalid_arg "Pages: out of bounds"

let zero_page t = Bytes.make t.page_size '\000'

(* The page buffer it is safe to mutate: materializes zero pages and
   un-shares buffers still referenced by a snapshot. *)
let writable_slot t i =
  match t.slots.(i) with
  | Some b when not t.shared.(i) -> b
  | Some b ->
    let c = Bytes.copy b in
    t.slots.(i) <- Some c;
    t.shared.(i) <- false;
    cow_bytes_total := !cow_bytes_total + t.page_size;
    c
  | None ->
    let b = zero_page t in
    t.slots.(i) <- Some b;
    t.shared.(i) <- false;
    b

let read t ~pos ~len =
  check_range t pos len;
  let out = Bytes.create len in
  let copied = ref 0 in
  while !copied < len do
    let abs = pos + !copied in
    let pg = abs / t.page_size and off = abs mod t.page_size in
    let n = Int.min (len - !copied) (t.page_size - off) in
    (match t.slots.(pg) with
    | None -> Bytes.fill out !copied n '\000'
    | Some b -> Bytes.blit b off out !copied n);
    copied := !copied + n
  done;
  (* [out] is fresh and never escapes as bytes: no second copy needed. *)
  Bytes.unsafe_to_string out

let pages_of_range t pos len =
  if len = 0 then []
  else begin
    let first = pos / t.page_size and last = (pos + len - 1) / t.page_size in
    List.init (last - first + 1) (fun i -> first + i)
  end

let notify_modify t ~pos ~len =
  check_range t pos len;
  List.iter (fun pg -> Hashtbl.replace t.dirty_set pg ()) (pages_of_range t pos len)

let write t ~pos s =
  let len = String.length s in
  check_range t pos len;
  List.iter
    (fun pg -> if t.strict && not (Hashtbl.mem t.dirty_set pg) then raise (Unnotified_write pg))
    (pages_of_range t pos len);
  if not t.strict then List.iter (fun pg -> Hashtbl.replace t.dirty_set pg ()) (pages_of_range t pos len);
  let copied = ref 0 in
  while !copied < len do
    let abs = pos + !copied in
    let pg = abs / t.page_size and off = abs mod t.page_size in
    let n = Int.min (len - !copied) (t.page_size - off) in
    Bytes.blit_string s !copied (writable_slot t pg) off n;
    copied := !copied + n
  done

let page t i =
  if i < 0 || i >= t.num_pages then invalid_arg "Pages.page";
  match t.slots.(i) with None -> String.make t.page_size '\000' | Some b -> Bytes.to_string b

(* A borrow, not a copy: the string aliases the live buffer, which later
   writes mutate in place (see the contract in pages.mli). *)
let page_view t i =
  if i < 0 || i >= t.num_pages then invalid_arg "Pages.page_view";
  match t.slots.(i) with None -> t.zero | Some b -> Bytes.unsafe_to_string b

let page_bytes t i =
  if i < 0 || i >= t.num_pages then invalid_arg "Pages.page_bytes";
  t.slots.(i)

let frozen_page_bytes t i =
  if i < 0 || i >= t.num_pages then invalid_arg "Pages.frozen_page_bytes";
  if t.shared.(i) then t.slots.(i) else None

let load_page t i contents =
  if i < 0 || i >= t.num_pages then invalid_arg "Pages.load_page";
  if String.length contents <> t.page_size then invalid_arg "Pages.load_page: size mismatch";
  t.slots.(i) <- Some (Bytes.of_string contents);
  t.shared.(i) <- false;
  t.generation <- t.generation + 1;
  Hashtbl.replace t.dirty_set i ()

let dirty t = Util.Sorted_tbl.keys t.dirty_set
let clear_dirty t = t.dirty_set <- Hashtbl.create 64

let allocated_pages t =
  Array.fold_left (fun acc s -> match s with Some _ -> acc + 1 | None -> acc) 0 t.slots

(* --- snapshots --- *)

let snapshot t =
  incr snapshots_total;
  (* O(num_pages) pointer work: alias every buffer and mark it shared so
     the next write to any page duplicates just that page. *)
  Array.fill t.shared 0 t.num_pages true;
  { snap_page_size = t.page_size; snap_slots = Array.copy t.slots }

let snapshot_page s i =
  if i < 0 || i >= Array.length s.snap_slots then invalid_arg "Pages.snapshot_page";
  match s.snap_slots.(i) with
  | None -> String.make s.snap_page_size '\000'
  | Some b -> Bytes.to_string b

let snapshot_page_bytes s i =
  if i < 0 || i >= Array.length s.snap_slots then invalid_arg "Pages.snapshot_page_bytes";
  s.snap_slots.(i)

let restore_page t snap i =
  if i < 0 || i >= t.num_pages then invalid_arg "Pages.restore_page";
  (match snap.snap_slots.(i) with
  | None ->
    t.slots.(i) <- None;
    t.shared.(i) <- false
  | Some b ->
    (* Adopt the snapshot's buffer by reference; it stays shared so a
       later write copies it rather than corrupting the snapshot. *)
    t.slots.(i) <- Some b;
    t.shared.(i) <- true);
  t.generation <- t.generation + 1;
  Hashtbl.replace t.dirty_set i ()

let restore_changed t snap =
  if Array.length snap.snap_slots <> t.num_pages then invalid_arg "Pages.restore_changed";
  let differs s b = not (String.equal s (Bytes.unsafe_to_string b)) in
  let changed i =
    match (t.slots.(i), snap.snap_slots.(i)) with
    | None, None -> false
    | Some b, None | None, Some b -> differs t.zero b
    | Some live, Some old ->
      (* Pointer equality on purpose: a slot still holding the snapshot's
         own buffer was never written since, so its bytes cannot differ. *)
      (not (live == old) [@detlint.allow physical_eq]) && differs (Bytes.unsafe_to_string live) old
  in
  for i = 0 to t.num_pages - 1 do
    if changed i then restore_page t snap i
  done

let alias_pages t ~first ~src ~src_first ~count =
  if src.page_size <> t.page_size then invalid_arg "Pages.alias_pages: page size mismatch";
  if count < 0 || first < 0 || src_first < 0 || first + count > t.num_pages
     || src_first + count > src.num_pages
  then invalid_arg "Pages.alias_pages";
  for k = 0 to count - 1 do
    let i = first + k and j = src_first + k in
    match (src.slots.(j), t.slots.(i)) with
    | None, None -> () (* unbacked on both sides: nothing changes *)
    | None, Some _ ->
      t.slots.(i) <- None;
      t.shared.(i) <- false;
      Hashtbl.replace t.dirty_set i ()
    | (Some _ as slot), _ ->
      (* One buffer, two owners: whichever side writes first copies. *)
      t.slots.(i) <- slot;
      t.shared.(i) <- true;
      src.shared.(j) <- true;
      Hashtbl.replace t.dirty_set i ()
  done

let copy t =
  (* A full logical copy, still O(num_pages) pointer work: both regions
     alias the same buffers and un-share lazily on write. *)
  Array.fill t.shared 0 t.num_pages true;
  {
    t with
    slots = Array.copy t.slots;
    shared = Array.make t.num_pages true;
    dirty_set = Hashtbl.copy t.dirty_set;
  }
