(** Unreliable datagram network — the simulation's UDP.

    Models the paper's testbed: point-to-point datagrams (IP multicast is
    off, §4), per-host NIC serialization at a configured bandwidth,
    propagation latency with jitter, Bernoulli packet loss, bounded
    receive buffers that drop under overload (the loop-back congestion
    loss of §2.4), targeted drop injection for the fault experiments, and
    partitions. Delivery is at-most-once, unordered under jitter — every
    PBFT robustness pathology in the paper stems from exactly these
    semantics.

    {b Fault plans.} Beyond the ambient profile, experiments can script
    faults against the deterministic engine clock: timed loss windows and
    auto-healing partitions ({!schedule_loss_window},
    {!schedule_partition}), per-link byte corruption / duplication /
    selective drops ({!set_link_corrupt}, {!set_link_duplicate},
    {!set_link_drop}), and expiring one-shot drop predicates
    ({!drop_next_matching}). All hooks are consulted with point lookups
    and draw from the engine RNG only when installed, so a benign run's
    trace digest is bit-identical with the fault machinery compiled in. *)

type addr = int

val any_addr : addr
(** Wildcard for one side of a link fault: [set_link_drop t ~src:3
    ~dst:any_addr] mutes everything replica 3 sends. An exact (src, dst)
    entry takes precedence over a sender wildcard, which takes precedence
    over a receiver wildcard. *)

type profile = {
  latency : float; (** mean one-way propagation delay, seconds *)
  jitter : float; (** stdev of the latency gaussian, seconds *)
  bandwidth : float; (** NIC egress bytes/second *)
  loss : float; (** Bernoulli datagram loss probability *)
  recv_buffer : int; (** datagrams queued at a receiver before overflow drops; 0 = unbounded *)
}

val lan_profile : profile
(** The paper's cluster: 1 GbE, ~150 µs RTT ping. *)

val wan_profile : profile
(** Wide-area deployment of §3.3.3: tens of ms latency. *)

type t

val create : Engine.t -> ?trace:Trace.t -> profile -> t
(** Several nets may share one engine — a sharded deployment gives each
    replica group its own address space plus an edge net for sessions. *)

val engine : t -> Engine.t
val trace : t -> Trace.t

val register : t -> addr -> (src:addr -> string -> unit) -> unit
(** Bind a receive handler; re-registering replaces the handler (a node
    restart re-binds its port). *)

val unregister : t -> addr -> unit
(** Datagrams to an unbound address are dropped silently, like UDP. *)

val send : t -> ?label:string -> ?detail:(unit -> string) -> src:addr -> dst:addr -> string -> unit
(** Fire-and-forget datagram. [detail] is forced only when the trace is
    enabled, so hot-path senders pay nothing for rich trace lines. *)

val set_loss : t -> float -> unit
[@@detlint.allow unused_export "fault-plan API that README documents; the simnet tests drive it"]
val loss : t -> float
[@@detlint.allow unused_export "fault-plan API that README documents; the simnet tests drive it"]

(** {2 One-shot targeted drops} *)

type drop_handle

val drop_next_matching :
  t -> ?expires_at:float -> (src:addr -> dst:addr -> label:string -> bool) -> drop_handle
(** One-shot targeted fault: the next datagram matching the predicate is
    silently dropped (the §2.4 experiments drop one specific packet).
    [expires_at] bounds the predicate's lifetime in absolute engine time
    (default: never) — a predicate that never fires would otherwise stay
    armed forever and eat an unrelated datagram in a later experiment
    phase. The returned handle can disarm it early via {!cancel_drop}. *)

val cancel_drop : drop_handle -> unit
[@@detlint.allow unused_export "fault-plan API that README documents; the simnet tests drive it"]
(** Disarm a pending drop; no-op if it already matched or expired. *)

val drop_armed : drop_handle -> bool
[@@detlint.allow unused_export "fault-plan API that README documents; the simnet tests drive it"]
(** True while the drop has neither matched nor been cancelled. *)

val pending_drops : t -> int
[@@detlint.allow unused_export "fault-plan API that README documents; the simnet tests drive it"]
(** Armed, unexpired one-shot drops still waiting to match. *)

val drain_drops : t -> int
(** Disarm and discard every pending one-shot drop (scenario teardown);
    returns how many were still live. *)

(** {2 Partitions} *)

val partition : t -> addr list -> addr list -> unit
[@@detlint.allow unused_export "fault-plan API that README documents; the simnet tests drive it"]
(** Drop everything between the two groups until {!heal}. *)

val heal : t -> unit
[@@detlint.allow unused_export "fault-plan API that README documents; the simnet tests drive it"]

(** {2 Scripted fault plans}

    Timed faults driven off the engine clock; each call schedules its
    begin/end events immediately, so plans are laid out before [run] and
    replay deterministically. *)

val schedule_loss_window : t -> start:float -> duration:float -> float -> unit
[@@detlint.allow unused_export "fault-plan API that README documents; the simnet tests drive it"]
(** [schedule_loss_window t ~start ~duration p] sets Bernoulli loss to
    [p] at engine time [start] and restores the previous value at
    [start +. duration]. Windows must not overlap. *)

val schedule_partition : t -> start:float -> duration:float -> addr list -> addr list -> unit
[@@detlint.allow unused_export "fault-plan API that README documents; the simnet tests drive it"]
(** Partition the two groups at [start]; auto-heal at [start +.
    duration]. Overlapping scheduled partitions are not supported (the
    heal is unconditional). *)

(** {2 Per-link Byzantine fault hooks}

    Keyed by (src, dst) with {!any_addr} wildcards; consulted with point
    lookups on the send path. These model an adversarial sender or a
    misbehaving router on one link: selective muting, bit corruption,
    datagram duplication. *)

val set_link_drop : t -> src:addr -> dst:addr -> (label:string -> bool) -> unit
(** Drop every datagram on the link whose label satisfies the predicate
    (e.g. mute only ["pre-prepare"] while still voting). *)

val set_link_corrupt : t -> src:addr -> dst:addr -> (dst:addr -> label:string -> string -> string) -> unit
(** Rewrite the payload bytes on the link. The hook sees the concrete
    destination (useful under a wildcard [dst]) and the label; what it
    returns is what crosses the wire — and what gets charged for
    serialization. *)

val set_link_duplicate : t -> src:addr -> dst:addr -> int -> unit
[@@detlint.allow unused_export "fault-plan API that README documents; the simnet tests drive it"]
(** Deliver [n] extra copies of every datagram on the link, each with an
    independent propagation sample (at-least-twice delivery). *)

val clear_link : t -> src:addr -> dst:addr -> unit

(** {2 Counters for experiment reports} *)

val sent_count : t -> int
val delivered_count : t -> int
[@@detlint.allow unused_export "the simnet tests count deliveries"]
val dropped_count : t -> int
val bytes_sent : t -> int

val set_backlog_probe : t -> addr -> (unit -> int) -> unit
(** A node that processes datagrams on its virtual CPU exposes its queue
    length here; when [recv_buffer > 0] and the backlog at delivery time
    is at or above it, the datagram is dropped — kernel socket-buffer
    overflow, the loss mode the paper hit on the loop-back interface. *)
