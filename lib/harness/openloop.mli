(** Open-loop workload generation against the gateway front door.

    Unlike the closed-loop {!Scenario} driver — whose offered load
    self-limits to the completion rate — the open-loop generator draws
    arrivals from a stochastic process on the virtual clock regardless
    of outstanding work, so it can push the deployment past saturation
    and measure what overload actually does: queue growth, deadline
    flushes, admission-control shedding, and the latency tail.

    Sessions are lightweight records (a sequence counter and an
    outstanding-request table entry) multiplexed over a few shared
    virtual connections; 10k–100k of them are cheap. The gateway's
    upstream connection pool does the real protocol work. *)

type arrival =
  | Poisson of float  (** constant mean arrival rate, requests/s *)
  | Bursty of { base : float; burst : float; period : float; duty : float }
      (** square wave: [burst] req/s for [duty]·[period] of each period,
          [base] req/s for the rest *)
  | Diurnal of { mean : float; amplitude : float; period : float }
      (** sinusoid: mean·(1 + amplitude·sin(2πt/period)) *)

val rate_at : arrival -> float -> float
(** Instantaneous rate at virtual time [t]. *)

val mean_rate : arrival -> float
(** Long-run mean of the process, for offered-load reporting. *)

type spec = {
  cfg : Pbft.Config.t;
  seed : int;
  sessions : int;
  arrival : arrival;
  service : Pbft.Service.t;
  profile : Simnet.Net.profile;
  warmup : float;
  duration : float;
  op_bytes : int;
  gen_conns : int;  (** shared virtual connections the sessions multiplex over *)
  gateway : Webgate.Frontdoor.config;
  retransmit : float option;
      (** per-request retransmit interval; [None] = fire and forget *)
}

val session_addr_base : int
(** Generator connection addresses are [session_addr_base + i]. *)

val default_spec : Pbft.Config.t -> spec
(** 10k sessions over 64 connections at 2000 req/s Poisson, 256-byte
    ops, null service, a 16-connection gateway with 8 KiB / 5 ms flush
    triggers, seed 1. *)

type gen
(** The running generator. *)

val stop_generator : gen -> unit

val create_gen : engine:Simnet.Engine.t -> net:Simnet.Net.t -> spec -> gen
(** Attach a generator to an existing deployment (the fault harness uses
    this to load a cluster it wired itself); arrivals start immediately. *)

type outcome = {
  base : Scenario.outcome;  (** gateway fields filled in *)
  offered : float;  (** mean offered load, requests/s *)
  arrivals : int;  (** arrivals in the measured window *)
  sessions : int;
  gen_shed : int;  (** shed replies observed by the generator (whole run) *)
  gen_retransmissions : int;
  reply_cache_hits : int;
  flushes_size : int;
  flushes_deadline : int;
  live_sessions : int;
  events_per_request : float;  (** simulation events per completed request *)
  alloc_per_request : float;  (** heap bytes allocated per completed request *)
}

val run :
  ?hook:(Pbft.Cluster.t -> Webgate.Frontdoor.t -> unit) ->
  spec ->
  outcome * Pbft.Cluster.t * Webgate.Frontdoor.t * gen
(** Build the cluster (its service wrapped with
    {!Webgate.Frontdoor.wrap_service}), put the front door and generator
    in front of it, run warmup + measured window, and aggregate. [hook]
    runs after construction, before load. *)
