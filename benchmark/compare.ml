(* Comparison of two sets of runs — a parent commit and a change — under
   the rules this benchmark is judged by, with each end-to-end metric's
   direction and bound read from BENCHMARK.json:
   - a gain needs at least 10 alternating pairs, the change winning at
     least 9 in 10 of them (ties count for neither side), and medians
     further apart than the parent's interquartile range;
   - a regression is a median worse than the parent's by more than the
     metric's bound (a share of the parent's median);
   - a metric whose parent spread exceeds its bound is unresolved, unless
     every change run beats every parent run.
   Input files hold one JSON object per line,
   {"workload": NAME, "seed": N, "result": <a run's last line>}, in run
   order, so the k-th parent and change lines of a workload form a pair. *)

module J = Webgate.Json

(* Python's statistics.quantiles(data, n=4), the default exclusive
   method: the first quartile, the median and the third quartile. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map J.parse

let values runs ~workload ~metric =
  List.filter_map
    (fun r ->
      if J.to_string_exn (J.member "workload" r) <> workload then None
      else
        Option.map
          (fun m -> J.to_float_exn (J.member "value" m))
          (J.member_opt metric (J.member "metrics" (J.member "result" r))))
    runs

type verdict = Gain | Within_bound | Unresolved | Regression

let verdict_string = function
  | Gain -> "gain"
  | Within_bound -> "ok"
  | Unresolved -> "unresolved"
  | Regression -> "REGRESSION"

let judge ~lower ~bound ~parent ~change =
  let better a b = if lower then a < b else a > b in
  let q1, med_p, q3 = quartiles parent and _, med_c, _ = quartiles change in
  let n = Int.min (List.length parent) (List.length change) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (first parent) (first change) in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let worse = if lower then med_c -. med_p else med_p -. med_c in
  let every_run_better = List.for_all (fun c -> List.for_all (better c) parent) change in
  let verdict =
    if n >= 10 && 10 * wins >= 9 * n && better med_c med_p && Float.abs (med_c -. med_p) > q3 -. q1
    then Gain
    else if (q3 -. q1) /. Float.abs med_p > bound && not every_run_better then Unresolved
    else if worse /. Float.abs med_p > bound then Regression
    else Within_bound
  in
  (verdict, med_p, med_c, wins, n)

(* One row per workload; returns the exit code: 1 if anything regressed. *)
let main ~parent ~change =
  let spec = J.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) in
  let list key = match J.member key spec with J.Arr l -> l | _ -> [] in
  let parent = read_lines parent and change = read_lines change in
  let regressions = ref 0 in
  List.iter
    (fun w ->
      let workload = J.to_string_exn (J.member "name" w) in
      let cells =
        List.filter_map
          (fun m ->
            let metric = J.to_string_exn (J.member "name" m) in
            let lower = J.to_string_exn (J.member "better" m) = "lower" in
            let bound = J.to_float_exn (J.member "bound" m) in
            match (values parent ~workload ~metric, values change ~workload ~metric) with
            | [], _ | _, [] -> None
            | p, c ->
              let v, mp, mc, wins, n = judge ~lower ~bound ~parent:p ~change:c in
              if v = Regression then incr regressions;
              Some
                (Printf.sprintf "%s %.4g->%.4g (%+.1f%%, %d/%d wins) %s" metric mp mc
                   ((mc -. mp) /. mp *. 100.0) wins n (verdict_string v)))
          (list "end_to_end")
      in
      if cells <> [] then Printf.printf "%-18s | %s\n" workload (String.concat " | " cells))
    (list "workloads");
  if !regressions > 0 then 1 else 0
