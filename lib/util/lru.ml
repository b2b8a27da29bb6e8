(* Bounded LRU map: hash lookup + intrusive doubly-linked recency list,
   so find/put/remove are O(1) and eviction pops the cold end without a
   scan. Iteration is deliberately not offered — callers that need
   ordered traversal should keep a canonical structure of their own. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards LRU end *)
  mutable next : ('k, 'v) node option;  (* towards MRU end *)
}

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* least recently used *)
  mutable tail : ('k, 'v) node option;  (* most recently used *)
  on_evict : 'k -> 'v -> unit;
}

let create ?(on_evict = fun _ _ -> ()) ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be at least 1";
  { capacity; tbl = Hashtbl.create 64; head = None; tail = None; on_evict }

let capacity t = t.capacity
let length t = Hashtbl.length t.tbl

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_mru t n =
  n.prev <- t.tail;
  n.next <- None;
  (match t.tail with Some old -> old.next <- Some n | None -> t.head <- Some n);
  t.tail <- Some n

let touch t n =
  let[@detlint.allow physical_eq] at_tail =
    match t.tail with Some m -> m == n | None -> false
  in
  if not at_tail then begin
    unlink t n;
    push_mru t n
  end

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
    touch t n;
    Some n.value

let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> ()
  | Some n ->
    Hashtbl.remove t.tbl k;
    unlink t n

let evict_lru t =
  match t.head with
  | None -> None
  | Some n ->
    Hashtbl.remove t.tbl n.key;
    unlink t n;
    Some (n.key, n.value)

let put t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
    n.value <- v;
    touch t n
  | None ->
    if Hashtbl.length t.tbl >= t.capacity then begin
      match evict_lru t with
      | Some (ek, ev) -> t.on_evict ek ev
      | None -> ()
    end;
    let n = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace t.tbl k n;
    push_mru t n

let mem t k = Hashtbl.mem t.tbl k
