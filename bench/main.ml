(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section VI).  See DESIGN.md for the experiment index. *)

let usage () =
  print_endline
    "usage: bench/main.exe [--only EXP] [--seeds N] [--shots N] [--full] [--out FILE]\n\
     EXP: table1 table2 table3 table4 fig9 fig11a fig11b routers trials\n\
     \     gap matrix verify scaling ablate-decomp\n\
     \     ablate-lookahead all  (gap/matrix/verify/scaling are opt-in only)\n\
     --seeds N   routing seeds per benchmark (default 5; heavy circuits capped at 3)\n\
     --shots N   Monte-Carlo shots for fig11b (default 2048; paper used 8192)\n\
     --full      full sizes: fig9 on the heavy (RevLib-scale) benchmarks too, the whole\n\
     \            gap corpus and matrix, scaling up to 10^6 gates (default: the CI\n\
     \            subsets, scaling <= 10^5 gates)\n\
     --out FILE  where to write the snapshot (default BENCH_<git-sha>-EXP.json with\n\
     \            --only EXP, BENCH_<git-sha>-paper.json for the paper's experiments:\n\
     \            table1 ... ablate-lookahead, all)"

let reject fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      usage ();
      exit 1)
    fmt

let () =
  let only = ref "all" in
  let seeds = ref 5 in
  let shots = ref 2048 in
  let full = ref false in
  let out = ref None in
  let count flag v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ -> reject "%s expects a positive integer, got %s" flag v
  in
  let rec parse = function
    | [] -> ()
    | "--only" :: v :: rest ->
        only := v;
        parse rest
    | "--seeds" :: v :: rest ->
        seeds := count "--seeds" v;
        parse rest
    | "--shots" :: v :: rest ->
        shots := count "--shots" v;
        parse rest
    | "--full" :: rest ->
        full := true;
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | x :: _ -> reject "unknown argument %s" x
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* the opt-in harnesses outside the experiment model, which [all] does
     not run; each returns the exit code *)
  let opt_in =
    [
      (* symbolic-verification throughput up to device scale *)
      ("verify", fun () -> Verify.run ~out:!out (); 0);
      (* streaming throughput/RSS matrix up to 433q and 10^6 gates; the RSS
         gate makes it exit non-zero on a memory blow-up *)
      ("scaling", fun () -> Scaling.run ~quick:(not !full) ?out:!out ~seed:11 ());
    ]
  in
  if not (!only = "all" || List.mem !only Paper.keys || List.mem_assoc !only opt_in) then
    reject "unknown experiment %s" !only;
  Paper.run ~only:!only ~seeds:!seeds ~shots:!shots ~full:!full ?out:!out ();
  Option.iter (fun run -> exit (run ())) (List.assoc_opt !only opt_in)
