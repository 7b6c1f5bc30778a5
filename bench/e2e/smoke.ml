(* Smoke test of the benchmark (part of [dune runtest]): every workload of
   BENCHMARK.json runs one pass at reduced size, end-to-end and traced, and
   must print every declared metric both as a [workload metric value unit]
   line and in its final JSON object.  The deterministic counts must repeat
   across two runs, and on eagle-trials across 1 and 2 trial workers. *)

module J = Qbench.Jsonlite

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        prerr_endline ("FAIL: " ^ msg)
      end)
    fmt

let field name j = Option.get (J.member name j)
let names key doc =
  List.map
    (fun m -> Option.get (J.to_string (field "name" m)))
    (Option.get (J.to_list (field key doc)))

(* one run of the benchmark at reduced size: its printed lines and the
   parsed final JSON object *)
let run ?(workers = []) ~trace workload =
  let argv =
    Array.of_list
      ([ "./e2e.exe"; "--workload"; workload; "--seed"; "5"; "--seconds"; "0" ]
      @ [ "--trace"; trace; "--small" ] @ workers)
  in
  let ic = Unix.open_process_args_in "./e2e.exe" argv in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  check (status = Unix.WEXITED 0) "%s --trace %s exited non-zero" workload trace;
  let last = List.nth lines (List.length lines - 1) in
  (lines, J.of_string last)

let value name result =
  Option.bind (J.member "metrics" result) (J.member name)
  |> Fun.flip Option.bind (J.member "value")
  |> Fun.flip Option.bind J.to_float

let check_printed ~workload ~trace lines result declared =
  check (J.member "correct" result = Some (J.Bool true)) "%s --trace %s not correct" workload trace;
  List.iter
    (fun name ->
      let prefix = Printf.sprintf "%s %s " workload name in
      check (value name result <> None) "%s --trace %s: %s missing from JSON" workload trace name;
      check
        (List.exists (String.starts_with ~prefix) lines)
        "%s --trace %s: %s not printed" workload trace name)
    declared

let counts result = (value "cx_geomean" result, value "depth_geomean" result)

let () =
  let doc = J.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  let end_to_end = names "end_to_end" doc and per_layer = names "per_layer" doc in
  List.iter
    (fun workload ->
      let lines, first = run ~trace:"0" workload in
      check_printed ~workload ~trace:"0" lines first end_to_end;
      let _, again = run ~trace:"0" workload in
      check (counts first = counts again) "%s: cx/depth differ between two runs" workload;
      if workload = "eagle-trials" then begin
        let _, two = run ~workers:[ "--workers"; "2" ] ~trace:"0" workload in
        check (counts first = counts two) "%s: cx/depth differ between 1 and 2 workers" workload
      end;
      let lines, traced = run ~trace:"1" workload in
      check_printed ~workload ~trace:"1" lines traced per_layer)
    (names "workloads" doc);
  if !failures > 0 then exit 1
