open Types

type entry = {
  me_client : client_id;
  me_addr : int;
  me_pubkey : string;
  mutable me_last_active : float;
  me_identity : string option;
}

(* Last-active order, oldest first. Client id breaks timestamp ties so
   the order — and therefore the stale-eviction sequence every replica
   executes — is total and deterministic. *)
module Agenda = Set.Make (struct
  type t = float * client_id

  let compare (t1, c1) (t2, c2) =
    let c = Float.compare t1 t2 in
    if c <> 0 then c else Int.compare c1 c2
end)

type t = {
  max : int;
  mutable next_id : int;
  table : (client_id, entry) Hashtbl.t;
  by_addr : (int, client_id) Hashtbl.t;
  by_identity : (string, client_id) Hashtbl.t;
  mutable agenda : Agenda.t;
      (* entries ordered by me_last_active; kept in lockstep with [table]
         so stale cleanup pops the oldest sessions in O(stale . log n)
         instead of folding over the whole table *)
}

let create ~max_clients =
  {
    max = max_clients;
    next_id = 1;
    table = Hashtbl.create 64;
    by_addr = Hashtbl.create 64;
    by_identity = Hashtbl.create 64;
    agenda = Agenda.empty;
  }

let add_entry t e =
  (match Hashtbl.find_opt t.table e.me_client with
  | Some old -> t.agenda <- Agenda.remove (old.me_last_active, old.me_client) t.agenda
  | None -> ());
  Hashtbl.replace t.table e.me_client e;
  Hashtbl.replace t.by_addr e.me_addr e.me_client;
  t.agenda <- Agenda.add (e.me_last_active, e.me_client) t.agenda;
  match e.me_identity with
  | Some id -> Hashtbl.replace t.by_identity id e.me_client
  | None -> ()

let remove_entry t c =
  match Hashtbl.find_opt t.table c with
  | None -> false
  | Some e ->
    Hashtbl.remove t.table c;
    Hashtbl.remove t.by_addr e.me_addr;
    t.agenda <- Agenda.remove (e.me_last_active, c) t.agenda;
    (match e.me_identity with
    | Some id -> if Hashtbl.find_opt t.by_identity id = Some c then Hashtbl.remove t.by_identity id
    | None -> ());
    true

let populate_static t l =
  List.iter
    (fun (client, addr, pubkey) ->
      add_entry t
        { me_client = client; me_addr = addr; me_pubkey = pubkey; me_last_active = 0.0; me_identity = None };
      if client >= t.next_id then t.next_id <- client + 1)
    l

let lookup t c = Hashtbl.find_opt t.table c
let lookup_addr t a = Hashtbl.find_opt t.by_addr a

type join_outcome =
  | Joined of { client : client_id; terminated : client_id list }
  | Table_full

let cleanup_stale t ~now ~stale_threshold =
  (* The agenda is ordered oldest-first, so this pops exactly the stale
     prefix: O(stale . log n) where the old full-table fold was O(n). *)
  let rec pop acc =
    match Agenda.min_elt_opt t.agenda with
    | Some (last, c) when now -. last > stale_threshold ->
      ignore (remove_entry t c);
      pop (c :: acc)
    | Some _ | None -> acc
  in
  (* Ascending client order, as the old sorted fold produced: the list
     reaches Join replies (terminated sessions), so its order must stay
     canonical. *)
  List.sort Int.compare (pop [])

let join t ~addr ~pubkey ~identity ~now ~stale_threshold =
  (* A live session for this identity is terminated: the attacker-facing
     guarantee is one session per credential. Likewise an old session
     bound to this address. *)
  let terminated = ref [] in
  (match Hashtbl.find_opt t.by_identity identity with
  | Some old ->
    if remove_entry t old then terminated := old :: !terminated
  | None -> ());
  (match Hashtbl.find_opt t.by_addr addr with
  | Some old -> if remove_entry t old then terminated := old :: !terminated
  | None -> ());
  let room () = Hashtbl.length t.table < t.max in
  let made_room =
    if room () then true
    else begin
      let cleared = cleanup_stale t ~now ~stale_threshold in
      terminated := cleared @ !terminated;
      room ()
    end
  in
  if not made_room then Table_full
  else begin
    let client = t.next_id in
    t.next_id <- t.next_id + 1;
    add_entry t
      {
        me_client = client;
        me_addr = addr;
        me_pubkey = pubkey;
        me_last_active = now;
        me_identity = Some identity;
      };
    Joined { client; terminated = List.rev !terminated }
  end

let leave t c = remove_entry t c

let touch t c now =
  match Hashtbl.find_opt t.table c with
  | Some e ->
    if not (Float.equal e.me_last_active now) then begin
      t.agenda <- Agenda.remove (e.me_last_active, c) t.agenda;
      e.me_last_active <- now;
      t.agenda <- Agenda.add (now, c) t.agenda
    end
  | None -> ()

let count t = Hashtbl.length t.table
let capacity t = t.max
let clients t = Util.Sorted_tbl.keys t.table

let serialize t =
  (* Keyed by me_client, so key order here is the entry order the old
     sort-by-record produced: serialization stays byte-identical. *)
  let sorted = List.map snd (Util.Sorted_tbl.bindings t.table) in
  Util.Codec.encode
    (fun w () ->
      Util.Codec.W.varint w t.next_id;
      Util.Codec.W.list w
        (fun w e ->
          Util.Codec.W.varint w e.me_client;
          Util.Codec.W.varint w e.me_addr;
          Util.Codec.W.lstring w e.me_pubkey;
          Util.Codec.W.f64 w e.me_last_active;
          Util.Codec.W.option w Util.Codec.W.lstring e.me_identity)
        sorted)
    ()

let load t s =
  Hashtbl.reset t.table;
  Hashtbl.reset t.by_addr;
  Hashtbl.reset t.by_identity;
  t.agenda <- Agenda.empty;
  match
    Util.Codec.decode
      (fun r ->
        let next_id = Util.Codec.R.varint r in
        let entries =
          Util.Codec.R.list r (fun r ->
              let me_client = Util.Codec.R.varint r in
              let me_addr = Util.Codec.R.varint r in
              let me_pubkey = Util.Codec.R.lstring r in
              let me_last_active = Util.Codec.R.f64 r in
              let me_identity = Util.Codec.R.option r Util.Codec.R.lstring in
              { me_client; me_addr; me_pubkey; me_last_active; me_identity })
        in
        (next_id, entries))
      s
  with
  | next_id, entries ->
    t.next_id <- next_id;
    List.iter (add_entry t) entries
  | exception Util.Codec.R.Truncated -> ()
