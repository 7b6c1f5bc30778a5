(* Candidate-scoring microbenchmark (`bench --only score`): throughput of
   the routing hot loop (steps/s, candidates/s), delta-scorer and Weyl-cache
   hit counts, and the per-step scoring-time percentiles (timing opt-in via
   Qobs.set_timing).  Emits a schema-versioned BENCH_<git-sha>-score.json
   (its own file, never the regress snapshot's BENCH_<git-sha>.json). *)

module J = Qbench.Jsonlite
module S = Qbench.Snapshot

let schema_version = 1
let kind = "nassc-score-microbench"

let routers = Qroute.Pipeline.select_routers [ "sabre"; "nassc" ]

let benches = [ "VQE 8-qubits"; "Adder 10-qubits"; "QFT 15-qubits" ]

type row = {
  name : string;
  router : string;
  steps : int;
  candidates : int;
  route_wall_s : float;
  steps_per_s : float;
  candidates_per_s : float;
  score_cache_hits : int;
  weyl_hits : int;
  weyl_misses : int;
  score_ms_p50 : float;
  score_ms_p90 : float;
  score_ms_p99 : float;
}

let run ?(seed = 11) ?out () =
  (* per-step scoring timestamps are off by default to keep traces
     deterministic; this harness is exactly the opt-in consumer *)
  Qobs.set_timing true;
  let coupling = Topology.Devices.montreal in
  let params = { Qroute.Engine.default_params with seed } in
  Printf.printf "=== score microbenchmark (montreal, seed %d, trials 1) ===\n%!" seed;
  let rows =
    List.concat_map
      (fun bname ->
        let entry = Qbench.Suite.find bname in
        let circuit = entry.build () in
        List.map
          (fun (rname, router) ->
            let obs_root = Qobs.Collector.create ~label:"score" ~record:true () in
            ignore
              (Qobs.with_collector obs_root (fun () ->
                   Qroute.Pipeline.transpile ~params ~trials:1 ~router coupling circuit));
            let trace = Qobs.Trace.of_root obs_root in
            let route_wall_s = Regress.span_wall trace "trial.route" in
            let totals = Qobs.Recorder.totals obs_root in
            let steps = totals.Qobs.Recorder.steps in
            let candidates = Qobs.Trace.counter_total trace "engine.swap_candidates_scored" in
            let per_s n =
              if route_wall_s > 0.0 then float_of_int n /. route_wall_s else 0.0
            in
            let p50, p90, p99 =
              match
                List.assoc_opt "engine.step_score_ms"
                  (Qobs.Trace.histograms_total trace)
              with
              | Some h when Qobs.Hist.count h > 0 ->
                  ( Qobs.Hist.percentile h 50.0,
                    Qobs.Hist.percentile h 90.0,
                    Qobs.Hist.percentile h 99.0 )
              | _ -> (0.0, 0.0, 0.0)
            in
            let r =
              {
                name = bname;
                router = rname;
                steps;
                candidates;
                route_wall_s;
                steps_per_s = per_s steps;
                candidates_per_s = per_s candidates;
                score_cache_hits = Qobs.Trace.counter_total trace "engine.score_cache_hits";
                weyl_hits = Qobs.Trace.counter_total trace "nassc.weyl_cache_hits";
                weyl_misses = Qobs.Trace.counter_total trace "nassc.weyl_cache_misses";
                score_ms_p50 = p50;
                score_ms_p90 = p90;
                score_ms_p99 = p99;
              }
            in
            Printf.printf
              "  %-16s %-6s %5d steps, %6d cand (%.0f steps/s, %.0f cand/s), \
               score-cache %d, weyl %d/%d, score ms p50/p90/p99 %.3f/%.3f/%.3f\n\
               %!"
              bname rname steps candidates r.steps_per_s r.candidates_per_s
              r.score_cache_hits r.weyl_hits r.weyl_misses p50 p90 p99;
            r)
          routers)
      benches
  in
  Qobs.set_timing false;
  let row_json r =
    J.Obj
      [
        ("name", J.Str r.name);
        ("router", J.Str r.router);
        ("steps", J.int r.steps);
        ("candidates", J.int r.candidates);
        ("route_wall_s", J.Num r.route_wall_s);
        ("steps_per_s", J.Num r.steps_per_s);
        ("candidates_per_s", J.Num r.candidates_per_s);
        ("score_cache_hits", J.int r.score_cache_hits);
        ("weyl_cache_hits", J.int r.weyl_hits);
        ("weyl_cache_misses", J.int r.weyl_misses);
        ("score_ms_p50", J.Num r.score_ms_p50);
        ("score_ms_p90", J.Num r.score_ms_p90);
        ("score_ms_p99", J.Num r.score_ms_p99);
      ]
  in
  let doc =
    S.document ~schema_version ~kind
      [
        ("seed", J.int seed);
        ("topology", J.Str "montreal");
        ("rows", J.List (List.map row_json rows));
      ]
  in
  Printf.printf "snapshot: %s\n%!" (S.write ?out ~suffix:"-score" doc)
