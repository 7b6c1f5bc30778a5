(* The parallel best-of-N trial engine: property tests for routing
   correctness across topologies and routers, determinism under worker-count
   changes, and bit-compatibility of the 1-trial path with the pre-trials
   single-shot pipeline. *)

open Mathkit
open Qcircuit
open Qgate

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- generators ---------- *)

let random_circuit seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 3 in
  let b = Circuit.Builder.create n in
  let len = 6 + Rng.int rng 20 in
  for _ = 1 to len do
    match Rng.int rng 6 with
    | 0 -> Circuit.Builder.add b Gate.H [ Rng.int rng n ]
    | 1 -> Circuit.Builder.add b (Gate.RZ (Rng.float rng 6.28)) [ Rng.int rng n ]
    | 2 -> Circuit.Builder.add b Gate.SX [ Rng.int rng n ]
    | 3 -> Circuit.Builder.add b Gate.T [ Rng.int rng n ]
    | _ ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b Gate.CX [ a; c ]
  done;
  Circuit.Builder.circuit b

(* every topology family from the paper's evaluation, sized so that a
   <=5-qubit random circuit fits and statevector equivalence stays cheap *)
let topology_for seed n_log =
  match seed mod 4 with
  | 0 -> ("linear", Topology.Devices.linear (n_log + 1))
  | 1 -> ("ring", Topology.Devices.ring (n_log + 2))
  | 2 -> ("grid", Topology.Devices.grid 2 4)
  | _ -> ("heavy-hex", Topology.Devices.heavy_hex 2 2)

(* ---------- seed-splitting scheme ---------- *)

let test_seed_stream () =
  checki "trial 0 keeps the base seed" 42 (Qroute.Trials.trial_seed ~base:42 0);
  checki "stride is the documented prime" (42 + Qroute.Trials.seed_stride)
    (Qroute.Trials.trial_seed ~base:42 1);
  let seeds = List.init 8 (Qroute.Trials.trial_seed ~base:11) in
  checki "streams are distinct" 8 (List.length (List.sort_uniq compare seeds))

(* ---------- the generic pool ---------- *)

let test_map_orders_results () =
  let r = Qroute.Trials.map ~workers:4 ~n:17 (fun k -> k * k) in
  Array.iteri
    (fun k v -> checki "slot k holds f k" (k * k) (match v with Ok v -> v | Error _ -> -1))
    r

let test_map_zero_tasks () =
  checki "n=0 is empty" 0 (Array.length (Qroute.Trials.map ~workers:3 ~n:0 (fun k -> k)))

(* ---------- property: best-of-N is valid and never worse than 1 trial ---------- *)

let qcheck_props =
  let gen_seed = QCheck.Gen.int_range 0 1_000_000 in
  let prop_for (rname, router) =
    QCheck.Test.make
      ~name:(Printf.sprintf "best-of-N %s: routed_equal and cx <= single trial" rname)
      ~count:6 (QCheck.make gen_seed)
      (fun seed ->
        let c = random_circuit seed in
        let _tname, coupling = topology_for seed (Circuit.n_qubits c) in
        let params = { Qroute.Engine.default_params with seed = 1 + (seed mod 1000) } in
        let r1 = Qroute.Pipeline.transpile ~params ~trials:1 ~router coupling c in
        let rn = Qroute.Pipeline.transpile ~params ~trials:3 ~workers:2 ~router coupling c in
        let equal_ok =
          match rn.final_layout with
          | Some fl -> Qsim.Equiv.routed_equal ~logical:c ~routed:rn.circuit ~final_layout:fl
          | None -> false
        in
        equal_ok && rn.cx_total <= r1.cx_total)
  in
  List.map QCheck_alcotest.to_alcotest (List.map prop_for Qroute.Pipeline.routers)

(* ---------- determinism ---------- *)

let same_circuit (a : Qroute.Pipeline.result) (b : Qroute.Pipeline.result) =
  Circuit.bit_equal a.circuit b.circuit

let test_trials_deterministic_across_runs () =
  let c = Qbench.Generators.qft 6 in
  let coupling = Topology.Devices.linear 8 in
  let params = { Qroute.Engine.default_params with seed = 11 } in
  let run () =
    Qroute.Pipeline.transpile ~params ~trials:8 ~router:Qroute.Pipeline.Sabre_router coupling
      c
  in
  let a = run () and b = run () in
  checki "cx stable" a.cx_total b.cx_total;
  checki "depth stable" a.depth b.depth;
  check "gate list stable" true (same_circuit a b)

let test_trials_deterministic_across_workers () =
  let c = Qbench.Generators.qft 6 in
  let coupling = Topology.Devices.linear 8 in
  let params = { Qroute.Engine.default_params with seed = 11 } in
  let with_workers w =
    Qroute.Pipeline.transpile ~params ~trials:8 ~workers:w
      ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config) coupling c
  in
  let a = with_workers 1 and b = with_workers 4 in
  checki "cx worker-independent" a.cx_total b.cx_total;
  checki "depth worker-independent" a.depth b.depth;
  check "gate list worker-independent" true (same_circuit a b);
  check "per-trial stats worker-independent" true
    (List.map
       (fun (s : Qroute.Trials.stat) -> (s.trial, s.seed, s.cx_total, s.depth, s.n_swaps))
       a.trial_stats
    = List.map
        (fun (s : Qroute.Trials.stat) -> (s.trial, s.seed, s.cx_total, s.depth, s.n_swaps))
        b.trial_stats)

(* the pre-PR single-shot pipeline on this pinned circuit, captured before
   the trials engine landed: the 1-trial path must reproduce it exactly *)
let test_single_trial_matches_pre_pr_golden () =
  let c = Qbench.Generators.qft 6 in
  let coupling = Topology.Devices.linear 8 in
  let params = { Qroute.Engine.default_params with seed = 11 } in
  let golden =
    [
      (Qroute.Pipeline.Sabre_router, (51, 57, 11));
      (Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config, (50, 54, 12));
    ]
  in
  List.iter
    (fun (router, (cx, depth, swaps)) ->
      let r1 = Qroute.Pipeline.transpile ~params ~trials:1 ~router coupling c in
      let r0 = Qroute.Pipeline.transpile ~params ~router coupling c in
      checki "golden cx" cx r1.cx_total;
      checki "golden depth" depth r1.depth;
      checki "golden swaps" swaps r1.n_swaps;
      check "explicit trials:1 equals default path" true (same_circuit r0 r1))
    golden

(* the hybrid router adds an exact solver inside the routing loop; its
   budget is node-count based (never wall clock), so its output must be as
   reproducible as the pure heuristics: byte-identical across repeat runs
   and across worker counts at a fixed seed *)
let test_hybrid_deterministic_across_runs () =
  let c = Qbench.Generators.qft 6 in
  let coupling = Topology.Devices.linear 8 in
  let params = { Qroute.Engine.default_params with seed = 11 } in
  let run () =
    Qroute.Pipeline.transpile ~params ~trials:8
      ~router:Qroute.Pipeline.Hybrid_router coupling c
  in
  let a = run () and b = run () in
  checki "cx stable" a.cx_total b.cx_total;
  checki "depth stable" a.depth b.depth;
  checki "swaps stable" a.n_swaps b.n_swaps;
  check "gate list stable" true (same_circuit a b)

let test_hybrid_deterministic_across_workers () =
  let c = Qbench.Generators.qft 6 in
  let coupling = Topology.Devices.linear 8 in
  let params = { Qroute.Engine.default_params with seed = 11 } in
  let with_workers w =
    Qroute.Pipeline.transpile ~params ~trials:8 ~workers:w
      ~router:Qroute.Pipeline.Hybrid_router coupling c
  in
  let a = with_workers 1 and b = with_workers 4 in
  checki "cx worker-independent" a.cx_total b.cx_total;
  checki "depth worker-independent" a.depth b.depth;
  check "gate list worker-independent" true (same_circuit a b);
  check "per-trial stats worker-independent" true
    (List.map
       (fun (s : Qroute.Trials.stat) -> (s.trial, s.seed, s.cx_total, s.depth, s.n_swaps))
       a.trial_stats
    = List.map
        (fun (s : Qroute.Trials.stat) -> (s.trial, s.seed, s.cx_total, s.depth, s.n_swaps))
        b.trial_stats)

(* the portfolio guarantee the gap corpus relies on: at equal seeds the
   hybrid never inserts more swaps than plain NASSC *)
let test_hybrid_never_worse_than_nassc () =
  List.iter
    (fun seed ->
      let c = random_circuit seed in
      let _t, coupling = topology_for seed (Circuit.n_qubits c) in
      let params = { Qroute.Engine.default_params with seed = 1 + (seed mod 97) } in
      let swaps router =
        (Qroute.Pipeline.transpile ~params ~trials:1 ~router coupling c).Qroute.Pipeline.n_swaps
      in
      let h = swaps Qroute.Pipeline.Hybrid_router in
      let n = swaps (Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config) in
      check (Printf.sprintf "seed %d: hybrid %d <= nassc %d" seed h n) true (h <= n))
    [ 2; 5; 23; 42; 77 ]

(* ---------- report bookkeeping ---------- *)

let test_stats_shape () =
  let c = Qbench.Generators.vqe 8 in
  let coupling = Topology.Devices.montreal in
  let params = { Qroute.Engine.default_params with seed = 3 } in
  let r =
    Qroute.Pipeline.transpile ~params ~trials:5 ~workers:2
      ~router:Qroute.Pipeline.Sabre_router coupling c
  in
  checki "one stat per trial" 5 (List.length r.trial_stats);
  List.iteri
    (fun k (s : Qroute.Trials.stat) ->
      checki "trials are ordered" k s.trial;
      checki "seed follows the stride" (Qroute.Trials.trial_seed ~base:3 k) s.seed;
      check "no error" true (s.error = None))
    r.trial_stats;
  let best = List.fold_left (fun m (s : Qroute.Trials.stat) -> min m s.cx_total) max_int r.trial_stats in
  checki "winner is the minimum over trials" best r.cx_total;
  check "wall time covers the trials" true (r.transpile_time > 0.0)

let () =
  Alcotest.run "trials"
    [
      ( "seed streams",
        [
          Alcotest.test_case "splitting" `Quick test_seed_stream;
          Alcotest.test_case "map ordering" `Quick test_map_orders_results;
          Alcotest.test_case "map empty" `Quick test_map_zero_tasks;
        ] );
      ("properties", qcheck_props);
      ( "determinism",
        [
          Alcotest.test_case "repeat runs" `Quick test_trials_deterministic_across_runs;
          Alcotest.test_case "1 vs 4 workers" `Quick test_trials_deterministic_across_workers;
          Alcotest.test_case "n=1 pre-PR golden" `Quick test_single_trial_matches_pre_pr_golden;
          Alcotest.test_case "hybrid repeat runs" `Quick test_hybrid_deterministic_across_runs;
          Alcotest.test_case "hybrid 1 vs 4 workers" `Quick
            test_hybrid_deterministic_across_workers;
          Alcotest.test_case "hybrid <= nassc swaps" `Quick test_hybrid_never_worse_than_nassc;
        ] );
      ("report", [ Alcotest.test_case "stats shape" `Quick test_stats_shape ]);
    ]
