type entry = { time : float; src : int; dst : int; label : string; detail : string; size : int }

type t = {
  capacity : int;
  mutable ring : entry array; (* [capacity] slots, allocated by the first record *)
  mutable next : int; (* the slot the next entry goes to *)
  mutable n : int; (* entries held, at most [capacity] *)
  mutable on : bool;
}

let create ?(capacity = 100_000) () = { capacity; ring = [||]; next = 0; n = 0; on = false }

let enabled t = t.on
let set_enabled t v = t.on <- v

let record t e =
  if t.on then begin
    if Array.length t.ring = 0 then t.ring <- Array.make t.capacity e;
    t.ring.(t.next) <- e;
    t.next <- (t.next + 1) mod t.capacity;
    if t.n < t.capacity then t.n <- t.n + 1
  end

let entries t =
  let oldest = t.next - t.n + t.capacity in
  List.init t.n (fun i -> t.ring.((oldest + i) mod t.capacity))

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
