(* The draw stays outside the encoder, which [Codec.encode] runs twice. *)
let produce ~now rng =
  let r = Util.Rng.next_int64 rng in
  Util.Codec.encode (fun w () -> Util.Codec.W.f64 w now; Util.Codec.W.u64 w r) ()

let decode_fields s =
  match
    Util.Codec.decode
      (fun r ->
        let ts = Util.Codec.R.f64 r in
        let rnd = Util.Codec.R.u64 r in
        (ts, rnd))
      s
  with
  | v -> Some v
  | exception Util.Codec.R.Truncated -> None

let timestamp s = Option.map fst (decode_fields s)
let random_value s = Option.map snd (decode_fields s)

let validate policy ~now ~recovering s =
  match decode_fields s with
  | None -> false
  | Some (ts, _) -> begin
    match policy with
    | Config.No_validation -> true
    | Config.Delta delta -> Float.abs (now -. ts) <= delta
    | Config.Delta_skip_on_recovery delta -> recovering || Float.abs (now -. ts) <= delta
  end
