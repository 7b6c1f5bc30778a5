(* The repository's end-to-end benchmark.

     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
         one run of one workload; prints [workload metric value unit] lines
         and, last, one JSON object {correct, attempted, failed, metrics}.
         Exits 1 when a correctness check fails.
     e2e.exe sweep [--seeds A-B] [--seconds S] --out FILE
         runs each workload once per seed, each run in its own process, and
         writes every run's result to FILE.
     e2e.exe compare A.json B.json
         pairs the runs of two sweep files by seed and applies the bounds
         of ./BENCHMARK.json.

   See bench/e2e/README.md for the workloads and metrics. *)

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       e2e.exe sweep [--seeds A-B] [--seconds S] --out FILE\n\
    \       e2e.exe compare A.json B.json";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "compare" :: rest -> exit (Sweep.compare_main rest)
  | "sweep" :: rest -> exit (Sweep.sweep_main rest)
  | _ ->
      let workload = ref "" and seed = ref 11 and seconds = ref 10.0 and trace = ref 0 in
      let small = ref false and workers = ref 1 in
      let spec =
        [
          ("--workload", Arg.Set_string workload, "NAME one of the workloads");
          ("--seed", Arg.Set_int seed, "N routing and generator seed (default 11)");
          ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
          ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
          ("--small", Arg.Set small, " reduced sizes (smoke test)");
          ("--workers", Arg.Set_int workers, "K trial workers (default 1)");
        ]
      in
      (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) "e2e.exe"
       with Arg.Bad m | Arg.Help m ->
         prerr_string m;
         usage ());
      if not (List.mem !workload Workloads.names) then begin
        Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
          (String.concat ", " Workloads.names);
        usage ()
      end;
      if (!trace <> 0 && !trace <> 1) || !workers < 1 then usage ();
      exit
        (Run.main ~workers:!workers ~small:!small ~workload:!workload ~seed:!seed ~seconds:!seconds
           ~trace:(!trace = 1) ())
