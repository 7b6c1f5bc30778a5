(* Observability-driven profile: where transpile time goes, per pass and per
   router — including p50/p90/p99 per-call latency from the shared Qobs.Hist
   percentile path — plus the counter totals (candidates scored, cache
   traffic, realized vs predicted CNOT savings).  This is the breakdown
   future performance PRs should quote before/after numbers from. *)

let routers = Qroute.Pipeline.select_routers [ "sabre"; "nassc" ]

let run ?(seed = 11) ?(trials = 4) () =
  (* opt into the per-step scoring-time histogram for the summaries *)
  Qobs.set_timing true;
  let coupling = Topology.Devices.montreal in
  let params = { Qroute.Engine.default_params with seed } in
  let benches = [ "VQE 8-qubits"; "QFT 15-qubits"; "Adder 10-qubits" ] in
  List.iter
    (fun name ->
      let entry = Qbench.Suite.find name in
      let circuit = entry.build () in
      List.iter
        (fun (rname, router) ->
          Printf.printf "=== profile: %s / %s (montreal, seed %d, %d trials) ===\n%!" name
            rname seed trials;
          let root = Qobs.Collector.create ~label:"main" () in
          let r =
            Qobs.with_collector root (fun () ->
                Qroute.Pipeline.transpile ~params ~trials ~router coupling circuit)
          in
          Qobs.Trace.pp_summary Format.std_formatter (Qobs.Trace.of_root root);
          Printf.printf "result: cx_total %d, depth %d, swaps %d, wall %.3f s\n\n%!"
            r.cx_total r.depth r.n_swaps r.transpile_time)
        routers)
    benches
