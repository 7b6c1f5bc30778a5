(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section VI).  See DESIGN.md for the experiment index. *)

let usage () =
  print_endline
    "usage: bench/main.exe [--only EXP] [--seeds N] [--shots N] [--full]\n\
     \       bench/main.exe --regress [--quick] [--baseline FILE] [--out FILE]\n\
     \                      [--max-cx-regress PCT] [--max-depth-regress PCT]\n\
     \                      [--metrics FILE] [--wide-events FILE]\n\
     \       bench/main.exe --only scaling [--quick] [--out FILE]\n\
     EXP: table1 table2 table3 table4 fig9 fig11a fig11b routers trials\n\
     \     gap matrix verify score scaling ablate-decomp\n\
     \     ablate-lookahead all  (gap/matrix/verify/score/scaling are opt-in only)\n\
     --seeds N   routing seeds per benchmark (default 5; heavy circuits capped at 3)\n\
     --shots N   Monte-Carlo shots for fig11b (default 2048; paper used 8192)\n\
     --full      run heavy (RevLib-scale) benchmarks everywhere (default: tables only)\n\
     --regress   run the regression suite, write BENCH_<git-sha>.json, compare\n\
     \            against the checked-in baseline and exit non-zero on regression\n\
     --quick     with --regress (six-circuit CI subset) or --only scaling (<= 10^5 gates)\n\
     --baseline FILE        baseline snapshot (default bench/baselines/regress-<suite>.json)\n\
     --out FILE             where to write the snapshot (default BENCH_<git-sha>.json,\n\
     \            BENCH_<git-sha>-EXP.json with --only EXP, BENCH_<git-sha>-paper.json\n\
     \            for the paper's experiments: table1 ... ablate-lookahead, all)\n\
     --max-cx-regress PCT   allowed cx_total growth in percent (default 2.0)\n\
     --max-depth-regress PCT allowed depth growth in percent (default 5.0)\n\
     --metrics FILE         with --regress: export the whole suite's observability\n\
     \            registry as a Prometheus/OpenMetrics text page\n\
     --wide-events FILE     with --regress: append one wide event JSON line per\n\
     \            (circuit, router) row"

let () =
  let only = ref "all" in
  let seeds = ref 5 in
  let shots = ref 2048 in
  let full = ref false in
  let regress = ref false in
  let quick = ref false in
  let baseline = ref None in
  let out = ref None in
  let max_cx = ref 2.0 in
  let max_depth = ref 5.0 in
  let metrics = ref None in
  let wide_events = ref None in
  let rec parse = function
    | [] -> ()
    | "--only" :: v :: rest ->
        only := v;
        parse rest
    | "--seeds" :: v :: rest ->
        seeds := int_of_string v;
        parse rest
    | "--shots" :: v :: rest ->
        shots := int_of_string v;
        parse rest
    | "--full" :: rest ->
        full := true;
        parse rest
    | "--regress" :: rest ->
        regress := true;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline := Some v;
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | "--max-cx-regress" :: v :: rest ->
        max_cx := float_of_string v;
        parse rest
    | "--max-depth-regress" :: v :: rest ->
        max_depth := float_of_string v;
        parse rest
    | "--metrics" :: v :: rest ->
        metrics := Some v;
        parse rest
    | "--wide-events" :: v :: rest ->
        wide_events := Some v;
        parse rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | x :: _ ->
        Printf.eprintf "unknown argument %s\n" x;
        usage ();
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* the opt-in harnesses, which [all] does not run; each returns the
     exit code *)
  let opt_in =
    [
      (* certifies optima with an exact solver *)
      ("gap", fun () -> Gap.run ~quick:!quick ~out:!out (); 0);
      (* routers x topologies x families comparison matrix *)
      ("matrix", fun () -> Matrix.run ~quick:!quick ~out:!out (); 0);
      (* symbolic-verification throughput up to device scale *)
      ("verify", fun () -> Verify.run ~out:!out (); 0);
      ("score", fun () -> Scorebench.run ?out:!out (); 0);
      (* streaming throughput/RSS matrix up to 433q and 10^6 gates; the RSS
         gate makes it exit non-zero on a memory blow-up *)
      ("scaling", fun () -> Scaling.run ~quick:!quick ?out:!out ~seed:11 ());
    ]
  in
  let known = !only = "all" || List.mem !only Paper.keys || List.mem_assoc !only opt_in in
  if not known then begin
    Printf.eprintf "unknown experiment %s\n" !only;
    usage ();
    exit 1
  end;
  if !regress then
    exit
      (Regress.run ?metrics:!metrics ?wide_events:!wide_events ~quick:!quick
         ~baseline:!baseline ~out:!out ~max_cx:!max_cx ~max_depth:!max_depth ~seed:11
         ~trials:1 ())
  else begin
    Paper.run ~only:!only ~seeds:!seeds ~shots:!shots ~full:!full ?out:!out ();
    Option.iter (fun run -> exit (run ())) (List.assoc_opt !only opt_in)
  end
