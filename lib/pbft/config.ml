type nondet_validation =
  | No_validation
  | Delta of float
  | Delta_skip_on_recovery of float

type t = {
  f : int;
  n : int;
  use_macs : bool;
  big_request_threshold : int;
  batching : bool;
  congestion_window : int;
  batch_delay : float;
  dynamic_clients : bool;
  max_clients : int;
  session_stale_threshold : float;
  checkpoint_interval : int;
  log_window : int;
  client_timeout : float;
  view_change_timeout : float;
  status_period : float;
  authenticator_rebroadcast : float;
  fetch_missing_bodies : bool;
  fetch_missing_entries : bool;
  nondet : nondet_validation;
  pipeline_depth : int;
  cores : int;
  rejoin_key_refresh : bool;
  key_refresh_period : float;
}

let max_batch_bytes = 8 * 1024
let join_request_timeout = 1.0

let is_big_request t op =
  t.big_request_threshold = 0 || String.length op > t.big_request_threshold

let default ~f =
  {
    f;
    n = (3 * f) + 1;
    use_macs = true;
    big_request_threshold = 0;
    batching = true;
    congestion_window = 1;
    batch_delay = 80e-6;
    dynamic_clients = false;
    max_clients = 64;
    session_stale_threshold = 30.0;
    checkpoint_interval = 128;
    log_window = 256;
    client_timeout = 0.150;
    view_change_timeout = 5.0;
    status_period = 0.25;
    authenticator_rebroadcast = 2.0;
    fetch_missing_bodies = false;
    fetch_missing_entries = false;
    nondet = No_validation;
    pipeline_depth = 1;
    cores = 1;
    rejoin_key_refresh = false;
    key_refresh_period = 0.0;
  }

let validate t =
  if t.n <> (3 * t.f) + 1 then Error "n must equal 3f+1"
  else if t.f < 1 then Error "f must be at least 1"
  else if t.checkpoint_interval <= 0 then Error "checkpoint_interval must be positive"
  else if t.log_window < 2 * t.checkpoint_interval then
    Error "log_window must be at least two checkpoint intervals"
  else if t.congestion_window < 1 then Error "congestion_window must be at least 1"
  else if t.client_timeout <= 0.0 then Error "client_timeout must be positive"
  else if t.view_change_timeout <= 0.0 then Error "view_change_timeout must be positive"
  else if t.authenticator_rebroadcast <= 0.0 then
    Error "authenticator_rebroadcast must be positive"
  else if t.max_clients < 1 then Error "max_clients must be at least 1"
  else if t.pipeline_depth < 1 then Error "pipeline_depth must be at least 1"
  else if t.cores < 1 then Error "cores must be at least 1"
  else if t.key_refresh_period < 0.0 then Error "key_refresh_period must be non-negative"
  else Ok ()
