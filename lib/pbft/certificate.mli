(** Threshold reply certificates — the middleware-level threshold
    cryptography §3.3.1 calls for.

    At deployment a (f+1, n) threshold RSA key is dealt to the replicas
    (the service key never exists at any single replica). When enabled,
    each replica attaches a partial signature over its reply; a client
    combines f+1 matching partials into one standalone RSA signature.
    The resulting certificate proves to ANY third party — with only the
    service public key — that the replicated service produced this reply
    for this request: a Byzantine replica (even a primary) cannot forge
    it, and in the e-voting application it acts as a vote receipt. *)

open Types

val partial : Crypto.Threshold.public -> Crypto.Threshold.share ->
  client:client_id -> rq_id:int -> result:string -> string
(** A replica's partial signature, wire-encoded for the Reply message. *)

val combine :
  Crypto.Threshold.public ->
  client:client_id ->
  rq_id:int ->
  result:string ->
  string list ->
  string option
(** Combine wire-encoded partials into a wire-encoded certificate;
    [None] if fewer than the threshold survive decoding/verification. *)

val verify :
  Crypto.Threshold.public -> client:client_id -> rq_id:int -> result:string -> string -> bool
[@@trust.sanitizer
  "reply-certificate check: true vouches that f+1 replicas signed this (client, rq_id, result)"]
(** Third-party verification of a certificate. *)
