(* Transpilation-latency micro-benchmarks, reported through the same
   Qobs.Hist log-bucketed histogram / percentile path the profile summary
   and the flight recorder use: warm up, sample repeated transpiles, print
   mean / p50 / p90 / p99 wall latency per workload.  Run with --timing or
   --only timing. *)

let transpile router coupling circuit () =
  ignore (Qroute.Pipeline.transpile ~router coupling circuit)

let workloads =
  let circuit = Qbench.Generators.grover 6 in
  List.concat_map
    (fun (tname, coupling) ->
      List.map
        (fun (rname, router) -> (tname ^ "/" ^ rname, transpile router coupling circuit))
        (Qroute.Pipeline.select_routers [ "sabre"; "nassc" ]))
    [
      ("table1-montreal", Topology.Devices.montreal);
      ("table3-linear", Topology.Devices.linear 25);
      ("table4-grid", Topology.Devices.grid 5 5);
    ]

let run ?(warmup = 2) ?(samples = 15) () =
  Printf.printf "%-28s %6s %10s %10s %10s %10s\n" "workload" "n" "mean(ms)" "p50(ms)"
    "p90(ms)" "p99(ms)";
  List.iter
    (fun (name, f) ->
      for _ = 1 to warmup do
        f ()
      done;
      let h = Qobs.Hist.create () in
      for _ = 1 to samples do
        let t0 = Unix.gettimeofday () in
        f ();
        Qobs.Hist.observe h (Unix.gettimeofday () -. t0)
      done;
      let ms v = v *. 1e3 in
      Printf.printf "%-28s %6d %10.3f %10.3f %10.3f %10.3f\n%!" name
        (Qobs.Hist.count h) (ms (Qobs.Hist.mean h))
        (ms (Qobs.Hist.percentile h 50.0))
        (ms (Qobs.Hist.percentile h 90.0))
        (ms (Qobs.Hist.percentile h 99.0)))
    workloads
