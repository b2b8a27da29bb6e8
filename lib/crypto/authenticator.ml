type t = { tags : (int * string) list }

let compute ~keys msg = { tags = List.map (fun (id, key) -> (id, Mac.compute ~key msg)) keys }

let check ~key ~replica msg t =
  match List.assoc_opt replica t.tags with
  | None -> false
  | Some tag -> Mac.verify ~key msg ~tag

let encode w t =
  Util.Codec.W.list w
    (fun w (id, tag) ->
      Util.Codec.W.u16 w id;
      Util.Codec.W.lstring w tag)
    t.tags

let decode r =
  let tags =
    Util.Codec.R.list r (fun r ->
        let id = Util.Codec.R.u16 r in
        let tag = Util.Codec.R.lstring r in
        (id, tag))
  in
  { tags }
