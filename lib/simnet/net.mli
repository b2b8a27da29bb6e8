(** Unreliable datagram network — the simulation's UDP.

    Models the paper's testbed: point-to-point datagrams (IP multicast is
    off, §4), per-host NIC serialization at a configured bandwidth,
    propagation latency with jitter, Bernoulli packet loss, bounded
    receive buffers that drop under overload (the loop-back congestion
    loss of §2.4) and targeted drop injection for the fault experiments.
    Delivery is at-most-once, unordered under jitter — every PBFT
    robustness pathology in the paper stems from exactly these
    semantics.

    {b Faults.} Beyond the profile's ambient loss, the net has two hooks:
    per-link drop and corruption ({!set_link_drop}, {!set_link_corrupt},
    {!clear_link}) and one-shot drop predicates ({!drop_next_matching}).
    Timing them is the caller's job: [Harness.Run]'s [plan] installs
    and clears them at engine times and drains the one-shot predicates
    after every run. Both hooks are point lookups that draw from the
    engine RNG only when installed, so a benign run's trace digest is
    bit-identical with the fault machinery compiled in. *)

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

(** {2 One-shot targeted drops} *)

val drop_next_matching : t -> (src:addr -> dst:addr -> label:string -> bool) -> unit
(** One-shot targeted fault: the next datagram matching the predicate is
    silently dropped (the §2.4 experiments drop one specific packet).
    When several armed predicates match, the newest fires; each fires
    exactly once, and one that never matches stays armed until
    {!drain_drops}. *)

val drain_drops : t -> unit
(** Disarm every pending one-shot drop (scenario teardown), so a
    predicate that never fired cannot eat an unrelated datagram in a
    later experiment phase. *)

(** {2 Per-link Byzantine fault hooks}

    Keyed by (src, dst) with {!any_addr} wildcards; consulted with point
    lookups on the send path. These model an adversarial sender or a
    misbehaving router on one link: selective muting and bit
    corruption. *)

val set_link_drop : t -> src:addr -> dst:addr -> (label:string -> bool) -> unit
(** Drop every datagram on the link whose label satisfies the predicate
    (e.g. mute only ["pre-prepare"] while still voting). *)

val set_link_corrupt : t -> src:addr -> dst:addr -> (dst:addr -> label:string -> string -> string) -> unit
(** Rewrite the payload bytes on the link. The hook sees the concrete
    destination (useful under a wildcard [dst]) and the label; what it
    returns is what crosses the wire — and what gets charged for
    serialization. *)

val clear_link : t -> src:addr -> dst:addr -> unit

(** {2 Counters for experiment reports} *)

val sent_count : t -> int
val dropped_count : t -> int
val bytes_sent : t -> int

val set_backlog_probe : t -> addr -> (unit -> int) -> unit
(** A node that processes datagrams on its virtual CPU exposes its queue
    length here; when [recv_buffer > 0] and the backlog at delivery time
    is at or above it, the datagram is dropped — kernel socket-buffer
    overflow, the loss mode the paper hit on the loop-back interface. *)
