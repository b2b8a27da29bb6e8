(** Byzantine fault scenario suite.

    Each scenario is a {!Run.spec} — an otherwise-correct f=1 cluster
    under load with a fault plan — plus the expectations its outcome
    must meet. Every scenario checks the two BFT properties the paper's
    robustness analysis turns on:

    - {b safety} — correct replicas never commit conflicting batches for
      the same sequence number and replicas at the same sequence number
      hold identical state ({!Run.safety});
    - {b liveness} — client requests keep completing with the fault
      still in place: the view change votes out a faulty primary, a
      starved backup demotes itself into a state transfer, and forged
      votes are rejected without disturbing a healthy view.

    Every scenario runs a 0.3 s healthy phase, arms the fault, and
    measures progress in a 1 s recovery window that starts 2.2 s later
    (the run's measured window), then drains for 0.2 s. All runs are
    seeded and deterministic. *)

type check = {
  result : Run.result;
  correct : Run.totals;  (** over the current incarnations of the correct replicas *)
  baseline : int;  (** requests completed before the fault was armed *)
  recovered : int;  (** requests completed from the recovery window's start to the end *)
}

type scenario = {
  name : string;
  spec : Run.spec;
  expect : (string * (check -> bool)) list;  (** what must hold, with the failure message *)
}

val behaviors : Pbft.Adversary.behavior list
(** The Byzantine behaviors (selective mute is parameterized) in suite
    order. *)

val behavior : ?seed:int -> ?speculative:bool -> Pbft.Adversary.behavior -> scenario
(** The behavior installed on the view-0 primary (a backup for forged
    view-change votes). [speculative] turns the execution pipeline on
    ([pipeline_depth = 4], [cores = 2]), so the adversary also faces
    replicas holding executed-but-uncommitted state. *)

val gateway : ?seed:int -> Pbft.Adversary.behavior -> scenario
(** The behavior with the cluster behind the {!Webgate.Frontdoor}:
    open-loop sessions through the door's coalescing and admission
    control instead of direct clients, progress counted at the door.
    Named ["gateway-<behavior>"]. *)

val crash_restart : ?seed:int -> ?speculative:bool -> unit -> scenario
(** Crash the view-0 primary of a key-value cluster for 1 s: the
    survivors elect view 1 and keep committing, and the restarted
    instance must reload its disk checkpoint, re-key
    ([rejoin_key_refresh]), rejoin via a Merkle-diff state transfer that
    fetches strictly fewer pages than a full one, and catch up to the
    working view with its view-change backoff reset. *)

val vc_mid_speculation : ?seed:int -> unit -> scenario
(** Commit datagrams are dropped on every link for 0.8 s, so pipelined
    replicas speculatively execute batches they cannot commit; the view
    change must roll the speculated suffix back, and once the drop heals
    the re-proposed batches must commit with journals and states still
    in agreement. *)

val suite : ?seed:int -> speculative:bool -> unit -> scenario list
(** The behaviors and {!crash_restart}, then {!vc_mid_speculation} with
    [speculative] or the {!gateway} variants without. *)

type report = {
  name : string;
  mutations : int;
  correct : Run.totals;
  baseline : int;
  recovered : int;
  safe : bool;
  live : bool;
  failures : string list;  (** safety violations, then unmet expectations *)
}

val run : ?trace:bool -> scenario -> report * Run.result
(** Run the scenario; [trace] keeps the message trace on (re-running a
    failed scenario for the CI artifact). *)

val render : report -> string
(** One status line, with failure reasons appended. *)
