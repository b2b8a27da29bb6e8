type entry = { time : float; src : int; dst : int; label : string; detail : string; size : int }

type t = {
  mutable items : entry list; (* newest first *)
  mutable n : int;
  capacity : int;
  mutable on : bool;
}

let create ?(capacity = 100_000) () = { items = []; n = 0; capacity; on = true }
let enabled t = t.on
let set_enabled t v = t.on <- v

let record t e =
  if t.on then begin
    t.items <- e :: t.items;
    t.n <- t.n + 1;
    if t.n > t.capacity * 2 then begin
      (* Amortized trim: keep the newest [capacity]. *)
      t.items <- List.filteri (fun i _ -> i < t.capacity) t.items;
      t.n <- t.capacity
    end
  end

let entries t = List.rev (List.filteri (fun i _ -> i < t.capacity) t.items)

let filter t pred = List.filter pred (entries t)

let render ?(limit = 200) t pred =
  let buf = Buffer.create 1024 in
  let rows = filter t pred in
  let rows = List.filteri (fun i _ -> i < limit) rows in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (* Human-facing dump only; nothing downstream hashes or parses it. *)
        (Printf.sprintf "%10.6fs  %3d -> %3d  %-16s %5dB  %s\n" e.time e.src e.dst e.label e.size
           e.detail
         [@detlint.allow float_format]))
    rows;
  Buffer.contents buf
