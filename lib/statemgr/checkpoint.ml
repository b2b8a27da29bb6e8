type t = { seq : int; tree : Merkle.t; snap : Pages.snapshot }

let take ~seqno pages tree =
  (* O(num_pages) pointer work plus an O(tree nodes) array copy: the
     snapshot aliases every live buffer and the tree copy shares its
     digest strings. Page bytes are duplicated lazily, on the next write. *)
  { seq = seqno; tree = Merkle.copy tree; snap = Pages.snapshot pages }

let seqno t = t.seq
let root t = Merkle.root t.tree
let page t i = Pages.snapshot_page t.snap i
let merkle t = t.tree

let restore t target tree =
  let divergent, _ = Merkle.diff tree t.tree in
  List.iter (fun i -> Pages.restore_page target t.snap i) divergent;
  (* Every leaf now equals the snapshot's: the divergent pages hold the
     snapshot's buffers and the rest compared equal. So the tree is the
     checkpoint's, and nothing needs hashing. *)
  Merkle.copy_into t.tree ~dst:tree;
  Pages.clear_dirty target

type undo = Pages.snapshot

let take_undo pages = Pages.snapshot pages
let undo_of t = t.snap

let restore_undo undo pages tree =
  Pages.restore_changed pages undo;
  (* The tree was current outside [Pages.dirty] before the restore, and
     the restore only changed pages it marked dirty: folding the dirty
     set makes the tree current everywhere again. *)
  Merkle.update tree pages (Pages.dirty pages);
  Pages.clear_dirty pages
