(** Virtual CPU cost model.

    Calibrated so that the simulated cluster reproduces the *shape* of the
    paper's Table 1 / Figures 4–5 on the authors' hardware (2.4 GHz Xeon
    E5620 / Core 2 Duo, 1 GbE): MAC operations are a few microseconds,
    Rabin signing is hundreds of microseconds while Rabin verification is
    one modular multiplication, per-datagram UDP stack traversal costs tens
    of microseconds plus a per-byte copy charge. EXPERIMENTS.md records the
    calibration against the paper's reported numbers. *)

type t = {
  mac_gen : float;  (** generate one 8-byte MAC tag *)
  mac_verify : float;
  sign : float;  (** Rabin signature generation (two modexps) *)
  sig_verify : float;  (** Rabin verification (one modular multiply) *)
  digest_base : float;  (** fixed cost of one SHA digest *)
  digest_per_byte : float;
  msg_fixed : float;  (** per-datagram send or receive stack cost *)
  msg_per_byte : float;  (** per-byte copy cost on send and receive *)
  exec_null : float;  (** executing a null operation *)
  log_bookkeeping : float;  (** per-protocol-message log maintenance *)
  merkle_leaf : float;
      (** hashing one dirty page into the state Merkle tree when a
          replica snapshots at a checkpoint boundary; one work item per
          leaf, fanned across the cores *)
  spec_overhead : float;
      (** per-batch bookkeeping of a speculative execution whose replies
          are held back until it commits (pipelined mode only) *)
  rollback_fixed : float;  (** fixed cost of restoring the undo snapshot on rollback *)
  rollback_per_page : float;  (** per-page cost of the undo restore *)
}

val default : t

val auth_verify : t -> Config.t -> float
(** Cost of checking one incoming message's authentication. *)

val auth_gen_costs : t -> Config.t -> float list
(** Cost of authenticating one outgoing multicast, as independent pieces
    for [Simnet.Cpu.execute_split]: one per MAC tag ([n − 1] of them) in
    MAC mode, the single signature otherwise. *)

val digest : t -> int -> float
(** Cost of digesting [n] bytes. *)

val send : t -> int -> float
(** CPU cost of pushing an [n]-byte datagram into the stack. *)

val recv : t -> int -> float

type sql = {
  stmt_fixed : float;  (** per-exec dispatch overhead *)
  parse_per_byte : float;  (** lexing + parsing, charged per SQL byte on a cache miss *)
  cache_lookup : float;  (** statement-cache hit: hash probe + AST reuse *)
  page_io : float;  (** per B-tree page touched *)
  row_eval : float;  (** per candidate row materialized and evaluated *)
}

val sql_default : sql
(** Knobs for the relational engine's statement cost
    ([Relsql.Database.exec]); kept beside the protocol constants so the
    whole virtual-time calibration lives in one module. *)
