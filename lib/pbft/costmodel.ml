type t = {
  mac_gen : float;
  mac_verify : float;
  sign : float;
  sig_verify : float;
  digest_base : float;
  digest_per_byte : float;
  msg_fixed : float;
  msg_per_byte : float;
  exec_null : float;
  log_bookkeeping : float;
  merkle_leaf : float;
  spec_overhead : float;
  rollback_fixed : float;
  rollback_per_page : float;
}

let default =
  {
    mac_gen = 1.2e-6;
    mac_verify = 1.2e-6;
    sign = 400e-6;
    sig_verify = 20e-6;
    digest_base = 0.4e-6;
    digest_per_byte = 2.4e-9;
    msg_fixed = 6e-6;
    msg_per_byte = 4e-9;
    exec_null = 0.5e-6;
    log_bookkeeping = 1.0e-6;
    merkle_leaf = 10.0e-6;
    spec_overhead = 2.0e-6;
    rollback_fixed = 20.0e-6;
    rollback_per_page = 1.0e-6;
  }

(* SQL execution costs live here too so every virtual-time knob is in one
   place; the relational engine charges them per statement. *)
type sql = {
  stmt_fixed : float;
  parse_per_byte : float;
  cache_lookup : float;
  page_io : float;
  row_eval : float;
}

let sql_default =
  {
    stmt_fixed = 20e-6;
    parse_per_byte = 50e-9;
    cache_lookup = 2e-6;
    page_io = 6e-6;
    row_eval = 1.5e-6;
  }

let auth_verify t (cfg : Config.t) = if cfg.use_macs then t.mac_verify else t.sig_verify

(* One MAC tag per peer, or the single signature: independent work items
   for [Simnet.Cpu.execute_split]. *)
let auth_gen_costs t (cfg : Config.t) =
  if cfg.use_macs then List.init (Int.max 0 (cfg.n - 1)) (fun _ -> t.mac_gen) else [ t.sign ]

let digest t n = t.digest_base +. (t.digest_per_byte *. float_of_int n)

(* Datagrams above the Ethernet MTU fragment; each fragment costs a fixed
   stack traversal. Sends are DMA-assisted (no per-byte CPU charge; the
   NIC serialization delay lives in the network model); receives pay the
   interrupt plus a per-byte copy. *)
let mtu_payload = 1472
let fragments n = Int.max 1 ((n + 28 + mtu_payload - 1) / mtu_payload)
let send t n = float_of_int (fragments n) *. t.msg_fixed
let recv t n = (float_of_int (fragments n) *. t.msg_fixed) +. (t.msg_per_byte *. float_of_int n)
