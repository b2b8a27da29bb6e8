open Bignum

type share = { index : int; value : Nat.t }

(* Evaluate the polynomial with the given coefficients (constant first) at
   x, all arithmetic mod field, by Horner's rule. *)
let eval_poly ~field coeffs x =
  List.fold_left (fun acc c -> Nat.mod_add (Nat.mod_mul acc x field) c field) Nat.zero
    (List.rev coeffs)

let split rng ~field ~threshold ~shares secret =
  if threshold < 1 || shares < threshold then invalid_arg "Shamir.split: bad threshold";
  if Nat.compare (Nat.of_int shares) field >= 0 then invalid_arg "Shamir.split: field too small";
  if Nat.compare secret field >= 0 then invalid_arg "Shamir.split: secret exceeds field";
  let coeffs = secret :: List.init (threshold - 1) (fun _ -> Nat.random_below rng field) in
  List.init shares (fun i ->
      let index = i + 1 in
      { index; value = eval_poly ~field coeffs (Nat.of_int index) })

(* Lagrange basis at zero: λ_i = Π_{j≠i} x_j / (x_j - x_i), in the field. *)
let lagrange_at_zero ~field shares i =
  let xi = Nat.of_int (List.nth shares i).index in
  List.fold_left
    (fun acc (j, s) ->
      if j = i then acc
      else begin
        let xj = Nat.of_int s.index in
        let denom = Nat.mod_sub xj xi field in
        match Nat.mod_inverse denom field with
        | None -> invalid_arg "Shamir.combine: duplicate share indices"
        | Some inv -> Nat.mod_mul acc (Nat.mod_mul xj inv field) field
      end)
    Nat.one
    (List.mapi (fun j s -> (j, s)) shares)

let combine ~field shares =
  match shares with
  | [] -> invalid_arg "Shamir.combine: no shares"
  | _ ->
    List.fold_left
      (fun (acc, i) s ->
        let li = lagrange_at_zero ~field shares i in
        (Nat.mod_add acc (Nat.mod_mul s.value li field) field, i + 1))
      (Nat.zero, 0) shares
    |> fst
