val allocated : (unit -> unit) -> float
(** Words [f ()] allocates, minor plus direct-major, net of the
    measurement's own; [f] runs once first as a warm-up. *)
