(* Each file keeps a durable image and a volatile overlay; sync folds the
   overlay into the image, crash discards it. An image is a buffer with a
   length apart from its capacity: the capacity grows by half again when
   a write runs past it, so appending to a file copies it only now and
   then, and sync and crash copy into the buffer already there. Bytes
   past the length are kept zero, so growing a file reads zeros. *)

type image = { mutable buf : Bytes.t; mutable len : int }
type file_state = { durable : image; volatile : image }

type t = {
  files : (string, file_state) Hashtbl.t;
  write_latency_per_byte : float;
  sync_latency : float;
  mutable syncs : int;
}

type file = { disk : t; state : file_state }

let create ?(write_latency_per_byte = 2e-9) ?(sync_latency = 1.3e-3) () =
  { files = Hashtbl.create 16; write_latency_per_byte; sync_latency; syncs = 0 }

let empty () = { buf = Bytes.empty; len = 0 }

let open_file t name =
  let state =
    match Hashtbl.find_opt t.files name with
    | Some st -> st
    | None ->
      let st = { durable = empty (); volatile = empty () } in
      Hashtbl.add t.files name st;
      st
  in
  { disk = t; state }

(* Set the length to [n]: a shrink zeroes the bytes it drops, a growth
   past the capacity moves the bytes to a larger zeroed buffer. *)
let resize img n =
  let cap = Bytes.length img.buf in
  if n < img.len then Bytes.fill img.buf n (img.len - n) '\000'
  else if n > cap then begin
    let grown = Bytes.make (Int.max n (cap + (cap / 2))) '\000' in
    Bytes.blit img.buf 0 grown 0 img.len;
    img.buf <- grown
  end;
  img.len <- n

(* Make [dst] a copy of [src]. *)
let assign dst src =
  resize dst src.len;
  Bytes.blit src.buf 0 dst.buf 0 src.len

let size f = f.state.volatile.len

let read f ~pos ~len =
  let img = f.state.volatile in
  if pos < 0 || len < 0 || pos + len > img.len then invalid_arg "Disk.read: out of bounds";
  Bytes.sub_string img.buf pos len

let write f ~pos s =
  if pos < 0 then invalid_arg "Disk.write: negative position";
  let img = f.state.volatile in
  let stop = pos + String.length s in
  if stop > img.len then resize img stop;
  Bytes.blit_string s 0 img.buf pos (String.length s)

let truncate f n =
  if n < 0 then invalid_arg "Disk.truncate";
  resize f.state.volatile n

let sync f =
  f.disk.syncs <- f.disk.syncs + 1;
  assign f.state.durable f.state.volatile

let sync_cost t = t.sync_latency
let write_cost t n = t.write_latency_per_byte *. float_of_int n

(* Order-free: each file's volatile image is reset independently. *)
let[@detlint.allow hashtbl_order] crash t =
  Hashtbl.iter (fun _ st -> assign st.volatile st.durable) t.files
let sync_count t = t.syncs
