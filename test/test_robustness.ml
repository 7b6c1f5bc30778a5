(* Edge cases, failure injection and property tests across module
   boundaries: the inputs a downstream user will eventually feed us. *)

open Mathkit
open Qcircuit
open Qgate

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- degenerate circuits through the full pipeline ---------- *)

(* every router routes an idle register, and a circuit without wires
   (which a [Source] cannot carry), to nothing *)
let test_empty_circuit () =
  List.iter
    (fun (name, router) ->
      List.iter
        (fun n ->
          let r =
            Qroute.Pipeline.transpile ~router Topology.Devices.montreal (Circuit.empty n)
          in
          let label = Printf.sprintf "%s on %d qubits" name n in
          check (label ^ ": no gates") true (Circuit.instrs r.circuit = []);
          checki (label ^ ": no cx") 0 r.cx_total;
          checki (label ^ ": no swaps") 0 r.n_swaps)
        [ 0; 3 ])
    Qroute.Pipeline.routers

let test_single_qubit_only_circuit () =
  let c =
    Circuit.create 4
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.T; qubits = [ 1 ] };
        { gate = Gate.RZ 0.4; qubits = [ 2 ] };
      ]
  in
  let r = Qroute.Pipeline.transpile ~router:Qroute.Pipeline.Sabre_router
      Topology.Devices.montreal c in
  checki "no swaps for 1q circuit" 0 r.n_swaps;
  checki "no cx" 0 r.cx_total

let test_circuit_exactly_fills_device () =
  let c = Qbench.Extras.ghz 5 in
  let coupling = Topology.Devices.linear 5 in
  let r =
    Qroute.Pipeline.transpile
      ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config) coupling c
  in
  check "routed validly at capacity" true (Qroute.Sabre.check_routed coupling r.circuit)

let test_circuit_too_big_raises () =
  let c = Qbench.Extras.ghz 6 in
  check "raises" true
    (try
       ignore
         (Qroute.Pipeline.transpile ~router:Qroute.Pipeline.Sabre_router
            (Topology.Devices.linear 5) c);
       false
     with Invalid_argument _ -> true)

let test_measures_survive_pipeline () =
  let c =
    Circuit.create 3
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 2 ] };
        { gate = Gate.Measure; qubits = [ 0 ] };
        { gate = Gate.Measure; qubits = [ 2 ] };
      ]
  in
  let r = Qroute.Pipeline.transpile ~router:Qroute.Pipeline.Sabre_router
      (Topology.Devices.linear 4) c in
  checki "measures kept" 2 (Circuit.gate_count r.circuit "measure")

(* ---------- engine parameter corners ---------- *)

let test_zero_lookahead () =
  let params = { Qroute.Engine.default_params with ext_size = 0 } in
  let c = Qbench.Generators.qft 8 in
  let coupling = Topology.Devices.linear 10 in
  let r = Qroute.Pipeline.transpile ~params ~router:Qroute.Pipeline.Sabre_router coupling c in
  check "routes without lookahead" true (Qroute.Sabre.check_routed coupling r.circuit)

let test_tiny_stall_limit_still_terminates () =
  let params = { Qroute.Engine.default_params with stall_limit = 1 } in
  let c = Qbench.Generators.qft 8 in
  let coupling = Topology.Devices.linear 10 in
  let r = Qroute.Pipeline.transpile ~params ~router:Qroute.Pipeline.Sabre_router coupling c in
  check "stall valve works" true (Qroute.Sabre.check_routed coupling r.circuit)

let test_single_iteration_layout () =
  let params = { Qroute.Engine.default_params with iterations = 1 } in
  let c = Qbench.Generators.vqe 8 in
  let coupling = Topology.Devices.montreal in
  let r =
    Qroute.Pipeline.transpile ~params
      ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config) coupling c
  in
  check "valid" true (Qroute.Sabre.check_routed coupling r.circuit)

(* ---------- trial-pool failure isolation ---------- *)

exception Injected of int

let test_failing_trials_are_isolated () =
  (* odd trials raise; the pool must record them and still return every
     even trial's result, without deadlocking or leaking a domain *)
  let r =
    Qroute.Trials.map ~workers:4 ~n:9 (fun k ->
        if k mod 2 = 1 then raise (Injected k) else k * 10)
  in
  Array.iteri
    (fun k outcome ->
      match (k mod 2, outcome) with
      | 0, Ok v -> checki "even trial survives" (k * 10) v
      | 1, Error (Injected j) -> checki "odd trial captured" k j
      | _ -> Alcotest.fail "wrong outcome shape")
    r

let test_failing_bonus_skips_trial () =
  (* a bonus function that blows up on one trial's stream: the best-of-N
     run skips that trial per the documented policy and wins with another *)
  let c = Qbench.Generators.qft 5 in
  let coupling = Topology.Devices.linear 6 in
  let dist = Qroute.Sabre.hop_distance coupling in
  let report =
    Qroute.Trials.run ~workers:2 ~n:4 ~base_seed:11
      ~measure:(fun (r : Qroute.Engine.result) ->
        (3 * r.n_swaps, List.length r.routed, r.n_swaps))
      (fun ~trial ~seed ->
        if trial = 2 then failwith "injected bonus failure";
        let params = { Qroute.Engine.default_params with seed } in
        let layout =
          Qroute.Engine.find_layout params coupling ~rng:(Qroute.Engine.layout_rng params)
            ~dist ~bonus:Qroute.Engine.zero_bonus (Qroute.Pipeline.lower_to_2q c)
        in
        Qroute.Engine.route_once params coupling ~rng:(Qroute.Engine.route_rng params) ~dist
          ~bonus:Qroute.Engine.zero_bonus (Qroute.Pipeline.lower_to_2q c) layout)
  in
  checki "all trials accounted for" 4 (List.length report.stats);
  let failed = List.filter (fun (s : Qroute.Trials.stat) -> s.error <> None) report.stats in
  checki "exactly the injected failure" 1 (List.length failed);
  checki "it was trial 2" 2 (List.hd failed).trial;
  check "winner is a surviving trial" true (report.best_stat.error = None)

let test_all_trials_failing_surfaces_one_error () =
  (* circuit wider than the device: every trial fails identically, and the
     multi-trial path raises the same clean error as the single-shot one *)
  let c = Qbench.Extras.ghz 6 in
  check "raises Invalid_argument" true
    (try
       ignore
         (Qroute.Pipeline.transpile ~trials:4 ~workers:2
            ~router:Qroute.Pipeline.Sabre_router (Topology.Devices.linear 5) c);
       false
     with Invalid_argument _ -> true)

(* ---------- noise extremes ---------- *)

let test_total_noise_destroys_signal () =
  (* with massive gate error every outcome is near-uniform: success of a
     deterministic circuit collapses towards 1/2^n *)
  let c =
    Circuit.create 3
      [
        { gate = Gate.X; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 1; 2 ] };
      ]
  in
  (* build an adversarial model via remap of a trivial one is not possible;
     use calibration on a device and scale by brute force: many repetitions
     of noisy identity gates *)
  let cal = Topology.Calibration.generate (Topology.Devices.linear 3) in
  let model = Qsim.Noise.of_calibration cal in
  let deep =
    let b = Circuit.Builder.create 3 in
    List.iter
      (fun (i : Circuit.instr) -> Circuit.Builder.add_instr b i)
      (Circuit.instrs c);
    for _ = 1 to 120 do
      Circuit.Builder.add b Gate.CX [ 0; 1 ];
      Circuit.Builder.add b Gate.CX [ 0; 1 ]
    done;
    Circuit.Builder.circuit b
  in
  let rng = Rng.create 17 in
  let shallow_hits =
    Array.fold_left
      (fun acc o -> if o = 0b111 then acc + 1 else acc)
      0
      (Qsim.Noise.sample model c ~shots:800 rng)
  in
  let deep_hits =
    Array.fold_left
      (fun acc o -> if o = 0b111 then acc + 1 else acc)
      0
      (Qsim.Noise.sample model deep ~shots:800 rng)
  in
  check "noise accumulates with depth" true (deep_hits < shallow_hits)

let test_esp_measured_subset () =
  let cal = Topology.Calibration.generate (Topology.Devices.linear 3) in
  let model = Qsim.Noise.of_calibration cal in
  let c = Circuit.create 3 [ { gate = Gate.CX; qubits = [ 0; 1 ] } ] in
  let e_none = Qsim.Noise.esp model c ~measured:[] in
  let e_all = Qsim.Noise.esp model c ~measured:[ 0; 1; 2 ] in
  check "more measured wires, lower esp" true (e_all < e_none)

let test_noise_remap () =
  let cal = Topology.Calibration.generate (Topology.Devices.linear 4) in
  let model = Qsim.Noise.of_calibration cal in
  let remapped = Qsim.Noise.remap model (fun q -> q + 1) in
  Alcotest.(check (float 0.0)) "remapped readout" (Qsim.Noise.readout_error model 3)
    (Qsim.Noise.readout_error remapped 2);
  Alcotest.(check (float 0.0)) "remapped cx" (Qsim.Noise.gate_error model Gate.CX [ 1; 2 ])
    (Qsim.Noise.gate_error remapped Gate.CX [ 0; 1 ])

(* ---------- DAG edge cases ---------- *)

let test_dag_empty () =
  let c = Circuit.empty 2 in
  checki "no nodes" 0 (Dag.n_nodes (Dag.of_circuit c));
  let sd = Streamdag.create ~window:max_int (Source.of_circuit c) in
  check "immediately finished" true (Streamdag.finished sd)

let test_walker_rejects_non_ready () =
  let c =
    Circuit.create 2
      [ { gate = Gate.H; qubits = [ 0 ] }; { gate = Gate.CX; qubits = [ 0; 1 ] } ]
  in
  let sd = Streamdag.create ~window:max_int (Source.of_circuit c) in
  check "cx not ready" true
    (try
       Streamdag.execute sd (List.hd (Streamdag.lookahead sd 1));
       false
     with Invalid_argument _ -> true)

(* ---------- QCheck properties across the stack ---------- *)

let qcheck_props =
  let gen_seed = QCheck.Gen.int_range 0 1_000_000 in
  let random_circuit seed =
    let rng = Rng.create seed in
    let n = 3 + Rng.int rng 2 in
    let b = Circuit.Builder.create n in
    let len = 5 + Rng.int rng 25 in
    for _ = 1 to len do
      match Rng.int rng 5 with
      | 0 -> Circuit.Builder.add b Gate.H [ Rng.int rng n ]
      | 1 -> Circuit.Builder.add b (Gate.RZ (Rng.float rng 6.28)) [ Rng.int rng n ]
      | 2 -> Circuit.Builder.add b Gate.SX [ Rng.int rng n ]
      | _ ->
          let a = Rng.int rng n in
          let c = (a + 1 + Rng.int rng (n - 1)) mod n in
          Circuit.Builder.add b Gate.CX [ a; c ]
    done;
    Circuit.Builder.circuit b
  in
  let prop_sabre_routed_equal =
    QCheck.Test.make ~name:"sabre routing preserves semantics" ~count:25
      (QCheck.make gen_seed) (fun seed ->
        let c = random_circuit seed in
        let coupling = Topology.Devices.linear (Circuit.n_qubits c + 1) in
        let params = { Qroute.Engine.default_params with seed } in
        let r = Qroute.Sabre.route ~params coupling c in
        Qsim.Equiv.routed_equal ~logical:c
          ~routed:(Qroute.Sabre.decompose_swaps r.circuit)
          ~final_layout:r.final_layout)
  in
  let prop_nassc_routed_equal =
    QCheck.Test.make ~name:"nassc routing preserves semantics" ~count:25
      (QCheck.make gen_seed) (fun seed ->
        let c = random_circuit seed in
        let coupling = Topology.Devices.ring (Circuit.n_qubits c + 2) in
        let params = { Qroute.Engine.default_params with seed } in
        let r = Qroute.Nassc.route ~params coupling c in
        Qsim.Equiv.routed_equal ~logical:c ~routed:r.circuit
          ~final_layout:r.final_layout)
  in
  let prop_pipeline_basis =
    QCheck.Test.make ~name:"pipeline always lands in hardware basis" ~count:15
      (QCheck.make gen_seed) (fun seed ->
        let c = random_circuit seed in
        let coupling = Topology.Devices.montreal in
        let params = { Qroute.Engine.default_params with seed } in
        let r =
          Qroute.Pipeline.transpile ~params
            ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config) coupling c
        in
        Qpasses.Basis.check r.circuit)
  in
  let prop_qasm_roundtrip =
    QCheck.Test.make ~name:"qasm emit/parse preserves unitary" ~count:20
      (QCheck.make gen_seed) (fun seed ->
        let c = random_circuit seed in
        let parsed = Qasm_parser.parse (Qasm.to_string c) in
        Qsim.Equiv.unitary_equal c parsed)
  in
  List.map QCheck_alcotest.to_alcotest
    [ prop_sabre_routed_equal; prop_nassc_routed_equal; prop_pipeline_basis; prop_qasm_roundtrip ]

let () =
  Alcotest.run "robustness"
    [
      ( "degenerate circuits",
        [
          Alcotest.test_case "empty" `Quick test_empty_circuit;
          Alcotest.test_case "1q only" `Quick test_single_qubit_only_circuit;
          Alcotest.test_case "fills device" `Quick test_circuit_exactly_fills_device;
          Alcotest.test_case "too big" `Quick test_circuit_too_big_raises;
          Alcotest.test_case "measures survive" `Quick test_measures_survive_pipeline;
        ] );
      ( "trial pool",
        [
          Alcotest.test_case "failures isolated" `Quick test_failing_trials_are_isolated;
          Alcotest.test_case "failing bonus skipped" `Quick test_failing_bonus_skips_trial;
          Alcotest.test_case "all failing surfaces error" `Quick
            test_all_trials_failing_surfaces_one_error;
        ] );
      ( "engine corners",
        [
          Alcotest.test_case "zero lookahead" `Quick test_zero_lookahead;
          Alcotest.test_case "tiny stall limit" `Quick test_tiny_stall_limit_still_terminates;
          Alcotest.test_case "single iteration" `Quick test_single_iteration_layout;
        ] );
      ( "noise extremes",
        [
          Alcotest.test_case "depth destroys signal" `Quick test_total_noise_destroys_signal;
          Alcotest.test_case "esp measured subset" `Quick test_esp_measured_subset;
          Alcotest.test_case "remap" `Quick test_noise_remap;
        ] );
      ( "dag corners",
        [
          Alcotest.test_case "empty" `Quick test_dag_empty;
          Alcotest.test_case "non-ready rejected" `Quick test_walker_rejects_non_ready;
        ] );
      ("properties", qcheck_props);
    ]
