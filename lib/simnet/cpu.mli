(** Per-node virtual CPU.

    Work items (message verification, request execution, signing) are
    charged a virtual cost and run to completion on one of [k] virtual
    cores (default 1). Dispatch picks the earliest-free core, lowest
    index on ties, so multi-core schedules are as deterministic as the
    single-core FIFO they generalize. Throughput experiments are
    bottleneck-CPU-bound exactly as on the paper's testbed: when the
    primary's CPU saturates, queueing delay — not network latency —
    dominates.

    With [cores = 1] the model is bit-identical to the historical
    single-core implementation: same float arithmetic, same event times,
    so pinned trace digests survive the generalization. *)

type t

val create : ?cores:int -> Engine.t -> t
(** [cores] defaults to 1; raises [Invalid_argument] if < 1. *)

val cores : t -> int

val execute : t -> cost:float -> (unit -> unit) -> unit
(** [execute t ~cost f] enqueues a work item taking [cost] virtual
    seconds on the earliest-free core; [f] runs when the item completes.
    Zero-cost items still respect dispatch ordering behind queued work. *)

val execute_split : t -> costs:float list -> (unit -> unit) -> unit
(** [execute_split t ~costs f] charges each element of [costs] as an
    independent piece of work — MAC fan-out, per-leaf hashing — dispatched
    greedily across the cores in list order; [f] runs once when the last
    piece finishes. On a single core this is serial execution of the sum;
    on [k] cores the pieces overlap. *)

val utilization : t -> since:float -> float
(** Fraction of [since, now] × cores the CPU spent busy (for experiment
    reports). *)

val queue_length : t -> int

val peak_queue_length : t -> int
(** High-water mark of in-flight work items since creation — the backlog
    depth overload reports surface (receive-buffer pressure, §2.4). *)

val total_busy : t -> float
(** Cumulative busy core-seconds since creation. *)
