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

let disk_file disk f ~cost =
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
  let file name = disk_file disk (Simdisk.Disk.open_file disk name) ~cost in
  {
    main = file name;
    journal = (if acid then Some (file (name ^ "-journal")) else None);
    time;
    random;
    cost;
  }

(* Free I/O: every write and sync adds 0.0 to the cost. *)
let in_memory ?acid ~seed () =
  on_disk ?acid (Simdisk.Disk.create ~write_latency_per_byte:0.0 ~sync_latency:0.0 ()) ~name:"db"
    ~seed
