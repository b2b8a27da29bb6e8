(* Replayable properties for every suite. Each property draws from its
   own random state, seeded from its name and a base seed: [QCHECK_SEED]
   when set, else a fresh one. A failure prints the base seed, and
   rerunning with it replays that property alone, whatever ran before
   it. *)

let base_seed =
  lazy
    (match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> int_of_string s
    | None ->
      Random.self_init ();
      Random.int 1_000_000_000)

let qcheck (QCheck2.Test.Test cell as test) =
  let name = QCheck2.Test.get_name cell and base = Lazy.force base_seed in
  let rand = Random.State.make [| base; Hashtbl.hash name |] in
  let case, speed, run = QCheck_alcotest.to_alcotest ~rand test in
  ( case,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.printf "property %S failed; QCHECK_SEED=%d replays it\n%!" name base;
        raise e )
