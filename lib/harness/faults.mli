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
  correct : Util.Metrics.snapshot;
      (** the run's metrics without the adversaries' nodes; a replica's
          counters cover every incarnation *)
  view : int;  (** the highest view a correct replica's current incarnation reached *)
  baseline : int;  (** requests completed before the fault was armed *)
  recovered : int;  (** requests completed from the recovery window's start to the end *)
}

type scenario = {
  name : string;
  spec : Run.spec;
  expect : (string * (check -> bool)) list;  (** what must hold, with the failure message *)
}

val suite : ?seed:int -> speculative:bool -> unit -> scenario list
(** Every {!Pbft.Adversary.behavior} (selective mute of replica 2) on the
    view-0 primary (a backup for forged view-change votes), each named
    by {!Pbft.Adversary.behavior_name}, and a crash-restart of the view-0
    primary (rejoin by Merkle-diff state transfer). With [speculative]
    (pipeline depth 4 on 2 cores, so the adversary also faces replicas
    holding executed-but-uncommitted state) then ["vc-mid-speculation"],
    a view change that must roll speculated batches back; without it
    the mute and equivocating primary behind the {!Webgate.Frontdoor}. *)

val run : ?trace:bool -> scenario -> check * string list
(** Run the scenario; its check and its failures: the run's safety
    violations, then the unmet expectations ([[]] means it passed;
    every scenario expects progress in the recovery window). [trace]
    keeps the message trace on (re-running a failed scenario for the CI
    artifact). *)

val render : scenario -> check * string list -> string
(** One status line, with failure reasons appended. *)
