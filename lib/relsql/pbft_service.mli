(** The paper's headline integration (§3.2, Figure 3): the relational
    engine runs *inside* a PBFT replica, with its database file mapped
    onto the replica's paged state region through the VFS seam.

    - Main-file page writes notify the state manager before modifying
      memory, so copy-on-write checkpointing and Merkle digests see every
      change;
    - the rollback journal lives on the replica's (simulated) local disk
      and is synced on commit, giving ACID semantics the PBFT state
      abstraction lacks;
    - the non-deterministic SQL functions NOW() and RANDOM() are rerouted
      to the agreed-upon pre-prepare values (§2.5), so all replicas
      evaluate them identically;
    - the database file is declared "large enough" up front — the sparse
      region trick the authors used to reconcile SQLite's growth with
      PBFT's fixed-size state.

    The service's operations are SQL strings; replies are rendered result
    sets or error text. *)

val is_readonly_sql : string -> bool
[@@detlint.allow unused_export "the read-only classifier tests call it directly"]
(** Planner-proven read-only classification: true iff the text parses and
    every statement is a SELECT whose expressions are free of the
    non-deterministic functions NOW() and RANDOM(). Such a batch is safe
    on the PBFT read-only fast path (each replica executes it against its
    current state without ordering); anything else — DML, DDL,
    transactions, non-determinism, parse errors — must be ordered. The
    built service installs this as its [classify_readonly]. *)

val service :
  ?acid:bool ->
  ?app_pages:int ->
  ?schema:string ->
  ?init:string list ->
  unit ->
  Pbft.Service.t
(** [service ~acid ~schema ()] builds a replicated-SQL service.
    [schema] and then the [init] statements — deterministic
    pre-population that lands in the genesis checkpoint — are executed
    once per service value, by its first [make]. That [make] captures the
    filled pages, the journal file and the statement cache; every later
    [make] (the other replicas, a restarted replica, a single-node
    replay, at any [first_page]) adopts the pages copy-on-write through
    {!Statemgr.Pages.alias_pages}, rewrites the journal image, opens the
    database and takes a copy of the cache, so it starts from the same
    bytes, Merkle root and statement-cache state, and prices every later
    statement identically. [make] expects a fresh region.
    [acid:false] disables the rollback journal and the commit syncs — the
    No-ACID configuration of §4.2. Each fsync costs 0.4 ms of virtual
    time (a 2011 SATA disk with its write cache on). *)

val service_with_db :
  ?acid:bool ->
  ?app_pages:int ->
  ?schema:string ->
  ?init:string list ->
  unit ->
  Pbft.Service.t * (Statemgr.Pages.t -> first_page:int -> Database.t * Pbft.Service.instance)
[@@detlint.allow unused_export "the SQL service tests read a replica's database"]
(** {!service} together with its [make] in a form that also returns the
    instance's database handle, for inspecting a booted instance (its
    statement cache) from tests and tools. Both share one boot. *)

val vote_schema : string
(** The e-voting style schema used by the Figure 5 experiments: a votes
    table keyed by an integer primary key with voter/choice text columns,
    a timestamp and a random value (the paper adds the last two to check
    reply identity across replicas). *)

val insert_vote_sql : voter:string -> choice:string -> string
(** The benchmark operation of §4.2: insert one vote row whose timestamp
    and nonce come from NOW() and RANDOM(). *)

val lookup_schema : string
(** Read-mostly benchmark table: integer primary key, an indexable
    integer key column [k], and a text pad. *)

val lookup_index_sql : string
(** [CREATE INDEX IF NOT EXISTS lookup_k ON lookup(k)] — run it (or
    don't) before filling to compare indexed probes against full scans
    on the identical operation stream. *)

val point_select_sql : key:int -> string
(** Aggregate point probe: count and sum the rows with [k = key]. *)

val range_select_sql : lo:int -> hi:int -> string
(** Small-range aggregate: count rows with [lo <= k < hi]. *)
