let bindings tbl =
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  (* [Hashtbl.fold] yields same-key bindings most-recent-first; the sort
     is stable, so that sub-order survives. *)
  List.stable_sort (fun (a, _) (b, _) -> Stdlib.compare a b) l

let keys tbl = List.map fst (bindings tbl)
let iter f tbl = List.iter (fun (k, v) -> f k v) (bindings tbl)
let fold f tbl init = List.fold_left (fun acc (k, v) -> f k v acc) init (bindings tbl)
