(* `bench --only matrix [--quick] [--out FILE]`: the routers x topologies x
   circuit-families comparison harness (see Qbench.Matrix).  Prints the
   markdown table, then writes the schema-versioned BENCH_<sha>-matrix.json
   snapshot plus the same table as BENCH_<sha>-matrix.md; both are pure
   functions of the seed, so CI can diff them across commits. *)

let run ~quick ~out () =
  let suite = if quick then "quick" else "full" in
  let seed = Qbench.Matrix.default_seed in
  let trials = Qbench.Matrix.default_trials in
  Printf.printf "=== bench --only matrix (%s suite, seed %d, trials %d) ===\n%!" suite
    seed trials;
  let instances = Qbench.Matrix.instances ~quick in
  let topologies =
    if quick then Qbench.Matrix.quick_topologies () else Qbench.Matrix.full_topologies ()
  in
  let obs_root = Qobs.Collector.create ~label:"matrix" () in
  let cells =
    Qobs.with_collector obs_root (fun () ->
        Qbench.Matrix.run ~seed ~trials ~instances ~topologies ())
  in
  print_string (Qbench.Matrix.markdown cells);
  let trace = Qobs.Trace.of_root obs_root in
  Printf.printf "\n%d cells (%d families x %d topologies x %d routers; %d esp \
                 evaluations, %d skipped)\n"
    (Qobs.Trace.counter_total trace "matrix.cells")
    (List.length
       (List.sort_uniq compare
          (List.map (fun (i : Qbench.Matrix.instance) -> i.family) instances)))
    (List.length topologies)
    (List.length Qroute.Pipeline.routers)
    (Qobs.Trace.counter_total trace "matrix.esp_evals")
    (Qobs.Trace.counter_total trace "matrix.cells_skipped");
  let out_file =
    Qbench.Snapshot.write ?out ~suffix:"-matrix"
      (Qbench.Matrix.to_json ~suite ~seed ~trials cells)
  in
  let md_file = Filename.remove_extension out_file ^ ".md" in
  let oc = open_out md_file in
  output_string oc (Qbench.Matrix.markdown cells);
  close_out oc;
  Printf.printf "snapshot: %s\ntable: %s\n" out_file md_file
