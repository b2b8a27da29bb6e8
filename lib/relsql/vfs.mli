(** The Virtual File System seam (Figure 3).

    Everything the engine knows about the outside world goes through this
    record: byte-level file access for the database file and journal, the
    durability barrier, and the environment functions (time, randomness)
    whose non-determinism must be centralized so a replicated deployment
    can substitute the primary's agreed values (§2.5). A cost accumulator
    collects the virtual price of the I/O so callers can charge it to a
    simulated CPU. *)

type file = {
  read : pos:int -> len:int -> string;
      (** A fresh copy of the bytes; the caller may keep it. *)
  view : pos:int -> len:int -> string;
      (** The same bytes, borrowed where the backing store allows (the
          PBFT state region lends whole pages without copying); other
          files fall back to [read]. A view may alias live storage: it is
          valid only until the next [write] to the file and must never be
          retained. Traced as [xRead], like [read]. *)
  write : pos:int -> string -> unit;
  sync : unit -> unit;
  size : unit -> int;
  truncate : int -> unit;
}

type t = {
  main : file;  (** the database file *)
  journal : file option;  (** rollback journal; [None] disables ACID *)
  time : unit -> float;
  random : unit -> int64;
  cost : float ref;  (** accumulated virtual seconds of I/O *)
}

val take_cost : t -> float
(** Read and reset the accumulator. *)

val in_memory : ?acid:bool -> seed:int -> unit -> t
(** Self-contained VFS (costless, deterministic env) for standalone use
    and tests: {!on_disk} over a private disk with zero write and sync
    latency, so the cost stays 0.0. *)

val on_disk : ?acid:bool -> Simdisk.Disk.t -> name:string -> seed:int -> t
(** Files on a simulated disk; write and sync costs are accumulated. *)

val disk_file : Simdisk.Disk.t -> Simdisk.Disk.file -> cost:float ref -> file
(** One open file of a simulated disk; each write and sync adds its cost
    to [cost]. [view] copies, like [read]. *)
