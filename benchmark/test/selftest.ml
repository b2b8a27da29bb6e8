(* Self-test of the benchmark: every workload at --quick length, once
   plain and once traced. It checks that
   - both runs pass their correctness checks and fail no operation;
   - tracing changed nothing deterministic: the virtual metrics and the
     event, datagram, byte and hashed-byte counts are identical, and
     allocation per operation agrees within 0.5% (the traced run
     subtracts its own allocation; the network hook shifts Net.send's
     table lookups by about one word per datagram);
   - the printed metric names and units are exactly BENCHMARK.json's;
   - gateway_failover saw a view change and a completed rejoin. *)

module J = Webgate.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let run workload ~trace =
  let args =
    [| "../main.exe"; "--workload"; workload; "--quick"; "--trace"; (if trace then "1" else "0");
       "--out"; "selftest-out" |]
  in
  let ic = Unix.open_process_args_in "../main.exe" args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s (trace %b): non-zero exit" workload trace);
  lines

let prefixed p lines = List.find_opt (String.starts_with ~prefix:p) lines

(* "check: k=v k=v ..." as an association list. *)
let fields line =
  String.split_on_char ' ' line
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | None -> None)

let spec = J.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)
let declared_list key = match J.member key spec with J.Arr l -> l | _ -> []

(* (name, unit) of each metric BENCHMARK.json declares under [key]. *)
let declared key =
  List.map
    (fun m -> (J.to_string_exn (J.member "name" m), J.to_string_exn (J.member "unit" m)))
    (declared_list key)

let workloads = List.map (fun w -> J.to_string_exn (J.member "name" w)) (declared_list "workloads")

let result lines = J.parse (List.nth lines (List.length lines - 1))

let metrics r =
  match J.member "metrics" r with
  | J.Obj l -> List.map (fun (name, v) -> (name, J.to_string_exn (J.member "unit" v))) l
  | _ -> []

let value r name = J.to_float_exn (J.member "value" (J.member name (J.member "metrics" r)))

let check_workload w =
  let plain = run w ~trace:false and traced = run w ~trace:true in
  List.iter
    (fun (lines, trace) ->
      let r = result lines in
      if not (J.to_bool_exn (J.member "correct" r)) then fail "%s (trace %b): not correct" w trace;
      if J.to_int_exn (J.member "failed" r) <> 0 then
        fail "%s (trace %b): operations failed" w trace)
    [ (plain, false); (traced, true) ];
  if metrics (result plain) <> declared "end_to_end" then
    fail "%s: end-to-end metrics differ from BENCHMARK.json" w;
  if metrics (result traced) <> declared "per_layer" then
    fail "%s: per-layer metrics differ from BENCHMARK.json" w;
  (match (prefixed "check:" plain, prefixed "check:" traced) with
  | Some a, Some b ->
    let a = fields a and b = fields b in
    List.iter
      (fun (k, va) ->
        let vb = List.assoc k b in
        if k = "alloc_kb_per_op" then begin
          let fa = float_of_string va and fb = float_of_string vb in
          if Float.abs (fa -. fb) > 0.005 *. fa then fail "%s: %s %s vs %s traced" w k va vb
        end
        else if va <> vb then fail "%s: %s %s vs %s traced" w k va vb)
      a
  | _ -> fail "%s: no check line" w);
  if w = "gateway_failover" then begin
    let r = result traced in
    if value r "pbft.view_changes" < 1.0 then fail "%s: no view change" w;
    if value r "pbft.rejoin_s" <= 0.0 then fail "%s: no completed rejoin" w
  end;
  Printf.printf "%s: plain and traced runs agree\n%!" w

let () =
  if List.length workloads <> 4 then fail "BENCHMARK.json does not name four workloads";
  List.iter check_workload workloads;
  if !failures > 0 then exit 1
