(** The application side of the middleware: the upcall interface a service
    implements to run replicated (§2.1, §3.2).

    A service declares the geometry of its partition of the PBFT state
    region; the replica constructs the region and hands the service an
    instance bound to it. During [execute] the service reads the region
    freely and must use {!Statemgr.Pages.notify_modify} before writing —
    the contract whose violation the region turns into an exception.

    [execute] reports the virtual seconds its execution and durability
    work cost; the null service reports (almost) zero and the SQL service
    reports parse/plan/step plus journal-write and fsync charges, which
    is precisely the difference the paper's Figure 5 measures. *)

open Types

type instance = {
  execute :
    (op:string ->
    client:client_id ->
    timestamp:float ->
    nondet:string ->
    readonly:bool ->
    string * float)
    [@trust.sink "service execution against the replicated state region"];
      (** run one operation; returns the reply body and the virtual cost
          (CPU plus durability work) the execution incurred *)
  authorize_join : idbuf:string -> string option;
      (** §3.1 application-level authorization of a Join: map the
          identification buffer to an application identity, or reject *)
  on_session_end : client_id -> unit;
      (** §3.3.2: invoked (deterministically, during request execution)
          when the middleware terminates a session — leave, takeover by
          the same identity, or stale cleanup — so session-mapped state
          can be reclaimed *)
}

type t = {
  name : string;
  page_size : int;
  app_pages : int;  (** pages of the state region given to the service *)
  make : Statemgr.Pages.t -> first_page:int -> instance;
      (** bind an instance to the region; the service owns pages
          [first_page ..  first_page + app_pages - 1] *)
  classify_readonly : string -> bool;
      (** service-level proof that an operation cannot modify state (and
          contains no non-deterministic functions), so callers — the
          harness, gateways — may send it with [rq_readonly = true] and
          ride the read-only fast path without opting in per call. Must
          be sound: a misclassified write would execute unordered at
          every replica. [never_readonly] is the safe default. *)
}

val null : ?reply_size:int -> unit -> t
(** The benchmarking service of §4.1: does nothing, replies with
    [reply_size] bytes (default 1024, the paper's representative size). *)

val counter : unit -> t
(** Minimal stateful service: ops "incr"/"get" maintain a counter in the
    state region — used by quickstart and the state-transfer tests. *)

val kv_store : unit -> t
(** An ordered key-value service storing its table in the state region;
    ops are "put k v" / "get k" / "del k". *)

val session_kv : unit -> t
[@@detlint.allow unused_export "the paper's 3.3.2 session-state service; the session tests drive it"]
(** A stateful service built on the §3.3.2 session-state subsystem: each
    client gets a private key-value area ("sput k v" / "sget k" /
    "skeys"), wiped automatically when its session ends. *)
