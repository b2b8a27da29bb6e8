type key = { node : int; layer : string; name : string }

let run_node = -1
type cell = { mutable v : int }
type kind = Sum | Max
type t = (key, kind * cell) Hashtbl.t

let create () : t = Hashtbl.create 64

type counter = cell
type gauge = cell

(* [Hashtbl.add], not [replace]: a re-registered key keeps every cell. *)
let register t kind ~node ~layer name =
  let c = { v = 0 } in
  Hashtbl.add t { node; layer; name } (kind, c);
  c

let counter t ~node ~layer name = register t Sum ~node ~layer name
let incr c = c.v <- c.v + 1
let add c n = c.v <- c.v + n
let count c = c.v
let gauge t ~node ~layer name = register t Max ~node ~layer name
let observe g x = if x > g.v then g.v <- x
let peak g = g.v

type value = Count of int | Peak of int | Real of float
type snapshot = (key * value) list

let merge a b =
  match (a, b) with
  | Count x, Count y -> Count (x + y)
  | Peak x, Peak y -> Peak (Int.max x y)
  | Real x, Real y -> Real (x +. y)
  | (Count _ | Peak _ | Real _), _ -> invalid_arg "Metrics: one name with two kinds"

(* Merge runs of equal keys in a key-sorted list. *)
let rec coalesce = function
  | (k1, a) :: (k2, b) :: rest when k1 = k2 -> coalesce ((k1, merge a b) :: rest)
  | entry :: rest -> entry :: coalesce rest
  | [] -> []

let snapshot t =
  coalesce
    (List.map
       (fun (k, (kind, c)) -> (k, match kind with Sum -> Count c.v | Max -> Peak c.v))
       (Sorted_tbl.bindings t))

let with_values snap entries =
  coalesce (List.stable_sort (fun (a, _) (b, _) -> compare a b) (snap @ entries))

let since before after =
  List.map
    (fun (k, v) ->
      match (v, List.assoc_opt k before) with
      | Count x, Some (Count y) -> (k, Count (x - y))
      | _ -> (k, v))
    after

let describe ~node ~layer name = Printf.sprintf "Metrics: %d/%s/%s is not registered" node layer name

let find snap ~node ~layer name =
  match List.assoc_opt { node; layer; name } snap with
  | Some v -> v
  | None -> invalid_arg (describe ~node ~layer name)

let to_int = function
  | Count x | Peak x -> x
  | Real _ -> invalid_arg "Metrics.to_int: a reading, not a count"

let to_float = function Count x | Peak x -> float_of_int x | Real x -> x
let get snap ~node ~layer name = to_int (find snap ~node ~layer name)

let by_name snap =
  coalesce
    (List.stable_sort compare
       (List.map (fun ({ layer; name; _ }, v) -> ((layer, name), v)) snap))

let total snap ~layer name =
  match List.assoc_opt (layer, name) (by_name snap) with
  | Some v -> to_int v
  | None -> invalid_arg (Printf.sprintf "Metrics: %s/%s is not registered" layer name)

let layers snap =
  List.fold_right
    (fun ((layer, name), v) acc ->
      match acc with
      | (l, entries) :: rest when String.equal l layer -> (l, (name, v) :: entries) :: rest
      | _ -> (layer, [ (name, v) ]) :: acc)
    (by_name snap) []
