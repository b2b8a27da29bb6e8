(* Totality properties for wire decoders, in the shape of the front
   door's codec properties: decode ∘ encode is the identity, and decode
   returns on every mutant of a valid encoding — cut short, one byte
   replaced, extended with junk — and on the junk alone. *)

let of_encoding s (cut, flip, junk) =
  let n = String.length s in
  let b = Bytes.of_string s in
  if n > 0 then Bytes.set b (flip mod n) (Char.chr ((flip / 7) land 0xff));
  [ String.sub s 0 (cut mod (n + 1)); Bytes.to_string b; s ^ junk; junk ]

(* [decode] returns [Some] of what [encode] wrote, checked with [equal];
   an exception out of [decode] fails the second property. *)
let properties ~name ~encode ~decode ~equal gen =
  let arb = QCheck.make gen in
  [
    QCheck.Test.make ~name:(name ^ " roundtrip") ~count:300 arb (fun v ->
        match decode (encode v) with Some v' -> equal v v' | None -> false);
    QCheck.Test.make ~name:(name ^ " never raises") ~count:300
      (QCheck.pair arb (QCheck.make QCheck.Gen.(triple nat nat (string_size (int_bound 64)))))
      (fun (v, mutation) ->
        List.iter (fun m -> ignore (decode m)) (of_encoding (encode v) mutation);
        true);
  ]
