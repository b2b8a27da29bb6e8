(** The motivating application (§1): an Internet e-voting service with no
    centralized component, built on the PBFT middleware with the SQL
    state abstraction.

    Election officials create elections and register choices; voters join
    the replicated service dynamically (credential in the Join
    identification buffer), cast exactly one ballot per election —
    enforced inside the replicated database, so all replicas agree — and
    anyone can read progress and tallies through the read-only
    optimization. Every vote row records the primary's agreed timestamp
    and a nonce from the agreed randomness, the fields the paper added to
    check that replies are identical across replicas. *)

(** {1 Server side} *)

val service : ?acid:bool -> unit -> Pbft.Service.t
(** The replicated service: SQL on the PBFT state region. *)

(** {1 Client-side operation builders}

    All return SQL strings to submit through {!Pbft.Client.invoke}; the
    mutating ones go through full agreement, the reading ones can be sent
    read-only. *)

val create_election_sql : name:string -> string
val add_choice_sql : election:int -> choice:string -> string

val cast_vote_sql : election:int -> voter:string -> choice:string -> string
(** One ballot per (election, voter): an existing ballot makes the insert
    fail deterministically on every replica. *)

val tally_sql : election:int -> string
(** Per-choice counts, descending. *)

val turnout_sql : election:int -> string

(** {1 Reply helpers} *)

val vote_accepted : string -> bool
(** Did a cast-vote reply indicate success? *)
