(** One registry of telemetry per run: counters and max-gauges keyed by
    (node, layer, name).

    An owner registers each key once, when it is created, and keeps the
    returned handle, so an increment is one field write. Registering a
    key that is already there (a restarted replica's new incarnation, a
    second replica group reusing the same ids) adds a cell under it; a
    {!snapshot} merges a key's cells, summing counters and taking the
    largest gauge, so whole-run totals cover every incarnation while
    each handle still reads its own cell alone.

    A snapshot lists the keys in ascending order, independent of the
    order they were registered in. A key nobody registered is absent
    from it: reading one is an error, never 0, so "not applicable" and
    "zero" stay apart. *)

type key = { node : int; layer : string; name : string }

val run_node : int
(** [-1]: the node of entries that belong to the run as a whole — the
    load, the churn plan, process-wide readings. *)

type t

val create : unit -> t

(** {1 Handles} *)

type counter

val counter : t -> node:int -> layer:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

val count : counter -> int
(** This handle's cell alone. *)

type gauge

val gauge : t -> node:int -> layer:string -> string -> gauge

val observe : gauge -> int -> unit
(** Raise the gauge to the value if it is larger. *)

val peak : gauge -> int
(** This handle's cell alone. *)

(** {1 Snapshots} *)

type value =
  | Count of int  (** a counter: cells sum *)
  | Peak of int  (** a max-gauge: cells take the largest *)
  | Real of float  (** a reading added to a snapshot after the run ({!with_values}) *)

type snapshot = (key * value) list
(** Ascending key order, one entry per key. *)

val snapshot : t -> snapshot

val with_values : snapshot -> (key * value) list -> snapshot
(** Add entries, keeping key order; an entry under a key already there
    merges with it as cells do. *)

val since : snapshot -> snapshot -> snapshot
(** [since before after]: counters as the increase from [before] to
    [after], gauges and readings as in [after]. *)

val find : snapshot -> node:int -> layer:string -> string -> value
(** Raises [Invalid_argument] when no entry has the key. *)

val get : snapshot -> node:int -> layer:string -> string -> int
(** {!find} for a counter or gauge. Raises [Invalid_argument] on a
    missing key or a {!Real} reading. *)

val to_float : value -> float

val total : snapshot -> layer:string -> string -> int
(** The counter or gauge merged over every node of the layer: counters
    sum, gauges take the largest. Raises [Invalid_argument] when no node
    has it or it is a {!Real} reading (read those with {!find}: they sit
    on {!run_node}). *)

val layers : snapshot -> (string * (string * value) list) list
(** Every name merged over its layer's nodes as {!total} merges them
    (readings sum), grouped by layer; layers and names in ascending
    order. *)
