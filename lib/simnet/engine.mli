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

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] fires [f] at [now t +. delay]; negative delays
    are clamped to zero. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit

type timer

val timer : t -> delay:float -> (unit -> unit) -> timer
(** Cancellable variant of {!schedule}. *)

val cancel : timer -> unit

val periodic : t -> interval:float -> (unit -> unit) -> timer
(** Fires every [interval] until cancelled. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue, stopping when empty, when virtual time would exceed
    [until], or after [max_events] events. *)

val pending : t -> int

val events : t -> int
(** Total events executed since [create] — a host-side throughput
    denominator; does not affect virtual time. *)
