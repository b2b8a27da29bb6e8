type file = {
  read : pos:int -> len:int -> string;
  view : pos:int -> len:int -> string;
  write : pos:int -> string -> unit;
  sync : unit -> unit;
  size : unit -> int;
  truncate : int -> unit;
}

type t = {
  main : file;
  journal : file option;
  time : unit -> float;
  random : unit -> int64;
  cost : float ref;
}

let take_cost t =
  let c = !(t.cost) in
  t.cost := 0.0;
  c

let heap_file () =
  let buf = ref (Bytes.create 0) in
  let size () = Bytes.length !buf in
  let ensure n =
    if n > size () then begin
      let grown = Bytes.make n '\000' in
      Bytes.blit !buf 0 grown 0 (size ());
      buf := grown
    end
  in
  let read ~pos ~len =
    if pos < 0 || len < 0 || pos + len > size () then invalid_arg "heap_file.read";
    Bytes.sub_string !buf pos len
  in
  {
    read;
    view = read;
    write =
      (fun ~pos s ->
        ensure (pos + String.length s);
        Bytes.blit_string s 0 !buf pos (String.length s));
    sync = (fun () -> ());
    size;
    truncate =
      (fun n ->
        if n < size () then buf := Bytes.sub !buf 0 n else ensure n);
  }

let env_of_seed seed =
  let rng = Util.Rng.create seed in
  let clock = ref 0.0 in
  let time () =
    (* A deterministic, monotonically advancing stand-in clock. *)
    clock := !clock +. 1e-3;
    !clock
  in
  let random () = Util.Rng.next_int64 rng in
  (time, random)

let in_memory ?(acid = true) ~seed () =
  let time, random = env_of_seed seed in
  {
    main = heap_file ();
    journal = (if acid then Some (heap_file ()) else None);
    time;
    random;
    cost = ref 0.0;
  }

let disk_file disk cost name =
  let f = Simdisk.Disk.open_file disk name in
  let read ~pos ~len = Simdisk.Disk.read f ~pos ~len in
  {
    read;
    view = read;
    write =
      (fun ~pos s ->
        cost := !cost +. Simdisk.Disk.write_cost disk (String.length s);
        Simdisk.Disk.write f ~pos s);
    sync =
      (fun () ->
        cost := !cost +. Simdisk.Disk.sync_cost disk;
        Simdisk.Disk.sync f);
    size = (fun () -> Simdisk.Disk.size f);
    truncate = (fun n -> Simdisk.Disk.truncate f n);
  }

let on_disk ?(acid = true) disk ~name ~seed =
  let time, random = env_of_seed seed in
  let cost = ref 0.0 in
  {
    main = disk_file disk cost name;
    journal = (if acid then Some (disk_file disk cost (name ^ "-journal")) else None);
    time;
    random;
    cost;
  }
