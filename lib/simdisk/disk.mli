(** Simulated stable storage with crash semantics.

    PBFT treats replica memory as stable storage by assuming UPSes (§1);
    the paper argues an Internet voting service cannot, and wires SQLite's
    rollback journal to real disk instead. This module gives the
    simulation that disk: buffered writes live in a volatile overlay until
    [sync] makes them durable, and [crash] discards everything volatile.
    Write and sync latencies are surfaced as costs the owning node charges
    to its virtual CPU, so the ACID experiments (Fig. 5, §4.2) are
    disk-bound exactly as in the paper.

    A file's images are growable buffers whose capacity may exceed the
    file's size: capacity grows geometrically, so an append copies the
    file only now and then, and [sync] and [crash] copy into the buffers
    already there. Bytes past the size always read as zeros once the
    file grows over them again, after a [truncate] too. *)

type t
(** One node's disk. *)

val create : ?write_latency_per_byte:float -> ?sync_latency:float -> unit -> t
(** Defaults model a 2011-era SATA disk with write-back cache:
    negligible buffered-write cost, ~1.3 ms to flush the cache. *)

type file

val open_file : t -> string -> file
(** Opens (creating if absent) the named file; reopening after a crash
    yields the durable image. *)

val size : file -> int
(** Current (volatile) size in bytes. *)

val read : file -> pos:int -> len:int -> string
(** Reads through the volatile overlay; zero-filled beyond EOF within the
    requested range is an error — raises [Invalid_argument] if
    [pos + len] exceeds the size. *)

val write : file -> pos:int -> string -> unit
(** Buffered write, extending the file if needed; a gap between the old
    size and [pos] reads as zeros. *)

val truncate : file -> int -> unit
(** Sets the size; growing it this way appends zeros. *)

val sync : file -> unit
(** Make all buffered writes durable. *)

val sync_cost : t -> float
(** Virtual seconds a [sync] costs the caller. *)

val write_cost : t -> int -> float
(** Virtual seconds a buffered write of n bytes costs the caller. *)

val crash : t -> unit
[@@detlint.allow unused_export "the durability tests crash the disk"]
(** Discard all volatile state on every file of this disk. *)

val sync_count : t -> int
[@@detlint.allow unused_export "the disk tests count syncs"]
