(* The paper's evaluation (Section VI) as data: Tables I-IV, Figures 9 and
   11, the router comparison, the best-of-N trials sweep and the two
   design ablations, each a Qbench.Experiment.  The opt-in benchmark
   matrix and optimality-gap table are experiments of the same model; the
   paper's default run's snapshot is checked in as
   bench/baselines/paper.json. *)

module E = Qbench.Experiment
module J = Qbench.Jsonlite
module P = Qroute.Pipeline
module Suite = Qbench.Suite

let col = E.col

let sabre = col "SABRE" P.Sabre_router
let nassc = col "NASSC" (P.Nassc_router Qroute.Nassc.default_config)

(* the 8 on/off combinations of NASSC's three optimizations, all-enabled
   ("2ab", the default config) last *)
let combos =
  let bools = [ false; true ] and flag on c = if on then c else "-" in
  List.concat_map
    (fun e2q ->
      List.concat_map
        (fun c1 ->
          List.map
            (fun c2 ->
              col
                (flag e2q "2" ^ flag c1 "a" ^ flag c2 "b")
                (P.Nassc_router
                   {
                     Qroute.Nassc.default_config with
                     enable_2q = e2q;
                     enable_commute1 = c1;
                     enable_commute2 = c2;
                   }))
            bools)
        bools)
    bools

let experiments ~full ~shots =
  let montreal = [ ("ibmq_montreal", Topology.Devices.montreal) ] in
  let linear = [ ("linear-25", Topology.Devices.linear 25) ] in
  let grid = [ ("grid-5x5", Topology.Devices.grid 5 5) ] in
  let paper = Suite.paper_suite in
  let noise = List.filter (fun (e : Suite.entry) -> e.noise_subset) paper in
  let noise_columns =
    [
      sabre;
      col "SABRE+HA" P.Sabre_ha;
      nassc;
      col "NASSC+HA" (P.Nassc_ha Qroute.Nassc.default_config);
      col "HYBRID" (P.Hybrid_router Qroute.Hybrid.default_config);
    ]
  in
  let x key title ?(devices = montreal) ?(entries = Suite.small_suite) columns derive =
    { E.key; title; devices; entries; columns; derive }
  in
  [
    x "table1" "Table I: additional CNOT gates" ~entries:paper [ sabre; nassc ] (Vs_sabre Cx);
    x "table2" "Table II: circuit depth" ~entries:paper [ sabre; nassc ] (Vs_sabre Depth);
    x "table3" "Table III: additional CNOT gates" ~devices:linear ~entries:paper [ sabre; nassc ]
      (Vs_sabre Cx);
    x "table4" "Table IV: additional CNOT gates" ~devices:grid ~entries:paper [ sabre; nassc ]
      (Vs_sabre Cx);
    (* 8 NASSC configurations per benchmark: the non-heavy suite unless --full *)
    x "fig9" "Figure 9: CNOT reduction vs SABRE, best-of-8 combos vs all-enabled"
      ~devices:(montreal @ linear @ grid)
      ~entries:(if full then paper else Suite.small_suite)
      (sabre :: combos) Best_of;
    x "fig11a" "Figure 11a: additional CNOT count on the noise setup" ~entries:noise noise_columns
      Added;
    x "fig11b"
      (Printf.sprintf "Figure 11b: success rate (ESP) under the noise model, %d shots" shots)
      ~entries:noise noise_columns (Success_rates shots);
    x "routers" "Router comparison (added CNOTs)"
      ~entries:(Suite.small_suite @ Suite.matrix_regress_entries)
      [
        col "A*-layers" P.Astar_router;
        sabre;
        nassc;
        col "Hybrid" (P.Hybrid_router Qroute.Hybrid.default_config);
      ]
      Added;
    x "trials"
      (Printf.sprintf "Best-of-N trials sweep (seed 11, %d workers)"
         (Qroute.Trials.default_workers ()))
      [ { sabre with params = { Qroute.Engine.default_params with seed = 11 } } ]
      (Trials_sweep [ 1; 2; 4; 8 ]);
    x "ablate-decomp" "Ablation: optimization-aware SWAP decomposition (added CNOTs)"
      [
        { sabre with label = "SABRE add" };
        { nassc with label = "NASSC add" };
        col "NASSC-no-orient"
          (P.Nassc_router { Qroute.Nassc.default_config with orient_swaps = false });
      ]
      Added;
    x "ablate-lookahead" "Ablation: extended-layer size |E| and weight W (NASSC added CNOTs)"
      ~entries:
        (List.map Suite.find
           [ "Grover 6-qubits"; "VQE 8-qubits"; "QFT 15-qubits"; "Adder 10-qubits" ])
      (List.map
         (fun (ext_size, ext_weight) ->
           {
             nassc with
             label = Printf.sprintf "|E|=%d W=%.1f" ext_size ext_weight;
             params = { Qroute.Engine.default_params with ext_size; ext_weight };
           })
         [ (0, 0.0); (10, 0.5); (20, 0.5); (40, 0.5); (20, 0.0); (20, 1.0) ])
      Added;
  ]

(* the opt-in experiments, which [all] does not run *)
let opt_in ~full = [ E.gap ~full; E.matrix ~full ]

let keys = List.map (fun x -> x.E.key) (experiments ~full:false ~shots:0 @ opt_in ~full:false)

(* Run the experiments [only] selects ("all": every paper experiment),
   print each table, and write the deterministic columns through
   {!Qbench.Snapshot}: BENCH_<sha>-paper.json for the paper's experiments,
   BENCH_<sha>-<only>.json for an opt-in one. *)
let run ~only ~seeds ~shots ~full ?out () =
  let paper = experiments ~full ~shots in
  (* the run header names only the settings the chosen experiments read:
     the opt-in ones route at fixed seeds and sample no shots *)
  let chosen, name, header =
    let opt_in_header = [ ("full", J.Bool full) ] in
    let paper_header = ("seeds", J.int seeds) :: ("shots", J.int shots) :: opt_in_header in
    if only = "all" then (paper, "paper", paper_header)
    else
      match List.filter (fun x -> x.E.key = only) paper with
      | [] -> (List.filter (fun x -> x.E.key = only) (opt_in ~full), only, opt_in_header)
      | xs -> (xs, "paper", paper_header)
  in
  match E.run ~seeds ~print:true chosen with
  | [] -> ()
  | results ->
      let doc =
        Qbench.Snapshot.document ~schema_version:1 ~kind:name
          (header @ List.map (fun (x, ts) -> (x.E.key, E.snapshot ts)) results)
      in
      Printf.printf "snapshot: %s\n" (Qbench.Snapshot.write ?out ~suffix:("-" ^ name) doc)

