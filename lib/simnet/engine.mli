(** Deterministic discrete-event engine over virtual time.

    Everything in the reproduction — network delays, CPU costs, disk
    syncs, protocol timers — is an event on this queue. Virtual time is in
    seconds. Two events scheduled for the same instant fire in scheduling
    order, which (together with the explicit {!Util.Rng}) makes every run
    bit-for-bit reproducible: the paper's authors had to retrofit a
    common-clock message log to reason about PBFT (§2.2); here the whole
    world shares one clock by construction. *)

type t

val create : seed:int -> t

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Util.Rng.t
(** The engine's root generator; components should [Util.Rng.split] it. *)

val metrics : t -> Util.Metrics.t
(** The run's telemetry registry: every node on this engine registers
    its counters here. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] fires [f] at [now t +. delay]; negative delays
    are clamped to zero. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit

type timer

val timer : t -> delay:float -> (unit -> unit) -> timer
(** Cancellable variant of {!schedule}. *)

val cancel : timer -> unit
(** Take the timer out of the queue: it never fires again. Cancelling a
    timer that already fired, or cancelling twice, does nothing. *)

val periodic : t -> interval:float -> (unit -> unit) -> timer
(** Fires every [interval] until cancelled; cancelling it from its own
    callback stops it too. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Fire events in order, stopping when the queue is empty, when the
    next event lies past [until] (the clock then moves to [until]), or
    after [max_events] fired events. *)

val pending : t -> int
(** Events in the queue; every one of them will fire unless cancelled
    first. *)

val events : t -> int
(** Events fired since [create] — a host-side throughput denominator;
    does not affect virtual time. *)
