exception Corrupt of string

let page_size = 4096
let magic = "RELSQL01"

type t = {
  vfs : Vfs.t;
  journaled : (int, unit) Hashtbl.t;  (** pages whose original this txn has kept *)
  originals : (int, string) Hashtbl.t;
      (** their images, in memory, when there is no journal file *)
  mutable txn : bool;
  mutable page_count : int;
  mutable freelist : int;
  mutable catalog_root : int;
  mutable header_dirty : bool;  (** header fields changed this txn; image written at commit *)
  touched : (int, unit) Hashtbl.t;
}

(* --- header --- *)

let header_image t =
  let w = Util.Codec.W.create () in
  Util.Codec.W.string w magic;
  Util.Codec.W.u32 w t.page_count;
  Util.Codec.W.u32 w t.freelist;
  Util.Codec.W.u32 w t.catalog_root;
  Util.Codec.W.contents_padded w page_size

let parse_header t image =
  let r = Util.Codec.R.of_string image in
  let m = Util.Codec.R.string r 8 in
  if m <> magic then raise (Corrupt "bad magic");
  t.page_count <- Util.Codec.R.u32 r;
  t.freelist <- Util.Codec.R.u32 r;
  t.catalog_root <- Util.Codec.R.u32 r

(* --- journal file format: u32 count, then (u32 page, page image)* --- *)

let journal_reset jf =
  jf.Vfs.truncate 0;
  jf.Vfs.write ~pos:0 "\000\000\000\000";
  jf.Vfs.sync ()

let journal_count jf =
  if jf.Vfs.size () < 4 then 0
  else begin
    let s = jf.Vfs.read ~pos:0 ~len:4 in
    Char.code s.[0] lor (Char.code s.[1] lsl 8) lor (Char.code s.[2] lsl 16)
    lor (Char.code s.[3] lsl 24)
  end

let journal_append jf index page image =
  let pos = 4 + (index * (4 + page_size)) in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int page);
  jf.Vfs.write ~pos (Bytes.to_string hdr);
  jf.Vfs.write ~pos:(pos + 4) image;
  let cnt = Bytes.create 4 in
  Bytes.set_int32_le cnt 0 (Int32.of_int (index + 1));
  jf.Vfs.write ~pos:0 (Bytes.to_string cnt)

let journal_record jf index =
  let pos = 4 + (index * (4 + page_size)) in
  let hdr = jf.Vfs.read ~pos ~len:4 in
  let page =
    Char.code hdr.[0] lor (Char.code hdr.[1] lsl 8) lor (Char.code hdr.[2] lsl 16)
    lor (Char.code hdr.[3] lsl 24)
  in
  (page, jf.Vfs.read ~pos:(pos + 4) ~len:page_size)

(* Write every journaled original back over the main file. *)
let replay_journal vfs jf =
  for i = 0 to journal_count jf - 1 do
    let page, image = journal_record jf i in
    vfs.Vfs.main.write ~pos:(page * page_size) image
  done

(* --- page access --- *)

let touch t page = Hashtbl.replace t.touched page ()

let zero_page = String.make page_size '\000'

let in_file t page = page >= 0 && page < t.vfs.Vfs.main.size () / page_size

let raw_read t page =
  if in_file t page then t.vfs.Vfs.main.read ~pos:(page * page_size) ~len:page_size
  else String.make page_size '\000'

let raw_view t page =
  if in_file t page then t.vfs.Vfs.main.view ~pos:(page * page_size) ~len:page_size
  else zero_page

let read_page t page =
  touch t page;
  raw_read t page

let view_page t page =
  touch t page;
  raw_view t page

(* For callers that may decide after looking at the content that no real
   work happened (e.g. the B-tree skipping a lazily-emptied leaf): view
   without recording an application page touch, and charge it explicitly
   with [touch_page] if warranted. *)
let view_page_quiet = raw_view
let touch_page = touch

let write_page t page image =
  if not t.txn then invalid_arg "Pager.write_page: no transaction";
  if String.length image <> page_size then invalid_arg "Pager.write_page: bad size";
  touch t page;
  (* Each original is kept once per transaction: appended to the journal
     file straight from the borrowed view, which makes the undo crash-safe
     and serves ROLLBACK; without a journal (no-ACID mode) a copy is kept
     in memory, so ROLLBACK still works. The raw accessors are pager
     bookkeeping, not application page touches. *)
  if not (Hashtbl.mem t.journaled page) then begin
    (match t.vfs.Vfs.journal with
    | Some jf -> journal_append jf (Hashtbl.length t.journaled) page (raw_view t page)
    | None -> Hashtbl.replace t.originals page (raw_read t page));
    Hashtbl.replace t.journaled page ()
  end;
  (* Write-through: the region is memory (or a simulated disk file);
     there is no separate cache to go stale when PBFT state transfer
     rewrites the pages underneath the engine. *)
  t.vfs.Vfs.main.write ~pos:(page * page_size) image

let write_header t =
  if not t.txn then invalid_arg "Pager.write_header: no transaction";
  write_page t 0 (header_image t);
  t.header_dirty <- false

(* Header mutations only mark the header dirty; the image is written once
   at commit. Crash safety is unchanged: the on-disk header stays at its
   pre-txn value until the commit-time write_page journals it, so a crash
   any time before the journal reset rolls the whole transaction back. *)
let mark_header_dirty t =
  if not t.txn then invalid_arg "Pager: header change outside transaction";
  t.header_dirty <- true

let allocate_page t =
  if not t.txn then invalid_arg "Pager.allocate_page: no transaction";
  let page =
    if t.freelist <> 0 then begin
      let p = t.freelist in
      let img = read_page t p in
      let r = Util.Codec.R.of_string img in
      t.freelist <- Util.Codec.R.u32 r;
      p
    end
    else begin
      let p = t.page_count in
      t.page_count <- t.page_count + 1;
      p
    end
  in
  write_page t page zero_page;
  mark_header_dirty t;
  page

let free_page t page =
  if not t.txn then invalid_arg "Pager.free_page: no transaction";
  let w = Util.Codec.W.create () in
  Util.Codec.W.u32 w t.freelist;
  write_page t page (Util.Codec.W.contents_padded w page_size);
  t.freelist <- page;
  mark_header_dirty t

let page_count t = t.page_count
let catalog_root t = t.catalog_root

let set_catalog_root t root =
  t.catalog_root <- root;
  mark_header_dirty t

(* --- transactions --- *)

let begin_txn t =
  if t.txn then invalid_arg "Pager.begin_txn: nested transaction";
  t.txn <- true;
  t.header_dirty <- false;
  Hashtbl.reset t.journaled;
  Hashtbl.reset t.originals

let in_txn t = t.txn

let commit t =
  if not t.txn then invalid_arg "Pager.commit: no transaction";
  (* One header image per transaction, deferred from allocate/free/
     set_catalog_root; write_page journals the original header first. *)
  if t.header_dirty then write_header t;
  (match t.vfs.Vfs.journal with
  | Some jf ->
    (* Barrier 1: the undo log was durable before the database changed
       (writes are write-through, so the ordering guarantee comes from
       journaling originals before the first write of each page). *)
    jf.Vfs.sync ();
    (* Barrier 2: the new contents are durable. *)
    t.vfs.Vfs.main.sync ();
    (* Barrier 3: resetting the journal is the commit point. *)
    journal_reset jf
  | None -> ());
  Hashtbl.reset t.journaled;
  Hashtbl.reset t.originals;
  t.txn <- false

let rollback t =
  if not t.txn then invalid_arg "Pager.rollback: no transaction";
  (* Write the original images back. *)
  (match t.vfs.Vfs.journal with
  | Some jf ->
    replay_journal t.vfs jf;
    journal_reset jf
  | None ->
    (* Rollback without a journal: each original image goes back to its
       own page offset, so the write order cannot change the final
       region contents or the trace. *)
    (Hashtbl.iter
       (fun page original -> t.vfs.Vfs.main.write ~pos:(page * page_size) original)
       t.originals [@detlint.allow hashtbl_order]));
  Hashtbl.reset t.journaled;
  Hashtbl.reset t.originals;
  t.txn <- false;
  t.header_dirty <- false;
  (* The header may have been rolled back too; re-read it. *)
  parse_header t (read_page t 0)

(* Runs before every statement outside a transaction, so it parses the
   borrowed header view in place rather than copying the page. *)
let refresh t =
  if t.txn then invalid_arg "Pager.refresh: inside a transaction";
  let img = raw_view t 0 in
  if String.starts_with ~prefix:magic img then parse_header t img

let take_pages_touched t =
  let n = Hashtbl.length t.touched in
  Hashtbl.reset t.touched;
  n

(* --- open & crash recovery --- *)

let open_pager vfs =
  let t =
    {
      vfs;
      journaled = Hashtbl.create 16;
      originals = Hashtbl.create 16;
      txn = false;
      page_count = 1;
      freelist = 0;
      catalog_root = 0;
      header_dirty = false;
      touched = Hashtbl.create 64;
    }
  in
  (* Hot-journal recovery: roll uncommitted changes back before reading
     anything else. *)
  (match vfs.Vfs.journal with
  | Some jf ->
    if journal_count jf > 0 then begin
      replay_journal vfs jf;
      vfs.Vfs.main.sync ();
      journal_reset jf
    end
  | None -> ());
  (* A database is fresh if the file is empty or — for a sparse region
     declared "large enough" up front (§3.2) — page 0 carries no magic. *)
  let fresh =
    vfs.Vfs.main.size () = 0
    || (let img = raw_read t 0 in
        String.length img < 8 || String.sub img 0 8 <> magic)
  in
  if fresh then begin
    vfs.Vfs.main.write ~pos:0 (header_image t);
    vfs.Vfs.main.sync ()
  end
  else parse_header t (raw_read t 0);
  t
