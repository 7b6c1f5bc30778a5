(* Tests for the extension modules: A* router, layout strategies, peephole
   optimization, circuit analysis, extra benchmarks, and their integration
   with the pipeline. *)

open Mathkit
open Qcircuit
open Qgate

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let random_2q_circuit rng n len =
  let b = Circuit.Builder.create n in
  for _ = 1 to len do
    match Rng.int rng 5 with
    | 0 -> Circuit.Builder.add b Gate.H [ Rng.int rng n ]
    | 1 -> Circuit.Builder.add b (Gate.RZ (Rng.float rng 6.28)) [ Rng.int rng n ]
    | 2 -> Circuit.Builder.add b Gate.T [ Rng.int rng n ]
    | _ ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b Gate.CX [ a; c ]
  done;
  Circuit.Builder.circuit b

(* ---------- A* router ---------- *)

let test_astar_layers () =
  let c =
    Circuit.create 4
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 2; 3 ] };
        { gate = Gate.CX; qubits = [ 1; 2 ] };
        { gate = Gate.H; qubits = [ 0 ] };
      ]
  in
  match Qroute.Astar.layers c with
  | [ l1; l2 ] ->
      checki "first layer parallel" 2 (List.length l1);
      checki "second layer" 2 (List.length l2)
  | ls -> Alcotest.fail (Printf.sprintf "expected 2 layers, got %d" (List.length ls))

let test_astar_validity_and_semantics () =
  let rng = Rng.create 9 in
  for trial = 1 to 5 do
    let c = random_2q_circuit rng 4 20 in
    let coupling = Topology.Devices.linear 5 in
    let r = Qroute.Astar.route ~seed:trial coupling c in
    check "astar valid" true (Qroute.Sabre.check_routed coupling r.circuit);
    (* semantic check via statevector, as for the other routers *)
    let expanded = Qroute.Sabre.decompose_swaps r.circuit in
    let s_log = Qsim.State.create 4 in
    Qsim.State.apply_circuit s_log c;
    let s_phys = Qsim.State.create 5 in
    Qsim.State.apply_circuit s_phys expanded;
    let scatter x =
      let idx = ref 0 in
      for l = 0 to 3 do
        if (x lsr (3 - l)) land 1 = 1 then idx := !idx lor (1 lsl (4 - r.final_layout.(l)))
      done;
      !idx
    in
    let total = ref 0.0 in
    let ok = ref true in
    for x = 0 to 15 do
      let p_log = Qsim.State.probability s_log x in
      let p_phys = Qsim.State.probability s_phys (scatter x) in
      total := !total +. p_phys;
      if Float.abs (p_log -. p_phys) > 1e-6 then ok := false
    done;
    check "astar preserves distribution" true (!ok && Float.abs (!total -. 1.0) < 1e-6)
  done

let test_astar_no_swaps_when_trivially_routable () =
  (* a circuit already matching the line needs no swaps from the identity
     layout; with a random initial layout swaps may appear, so force via a
     fully-connected device instead *)
  let c = Qbench.Generators.ghz_chain 5 in
  let r = Qroute.Astar.route ~seed:11 (Topology.Devices.fully_connected 5) c in
  checki "no swaps" 0 r.n_swaps

let test_astar_in_pipeline () =
  let c = Qbench.Generators.vqe 8 in
  let coupling = Topology.Devices.montreal in
  let r = Qroute.Pipeline.transpile ~router:Qroute.Pipeline.Astar_router coupling c in
  check "pipeline astar basis" true (Qpasses.Basis.check r.circuit);
  check "pipeline astar valid" true (Qroute.Sabre.check_routed coupling r.circuit);
  (* literature shape: per-layer search without lookahead loses to SABRE *)
  let s = Qroute.Pipeline.transpile ~router:Qroute.Pipeline.Sabre_router coupling c in
  check "sabre beats astar on vqe8" true (s.cx_total <= r.cx_total)

(* ---------- peephole ---------- *)

let test_peephole_cancels_inverse_pairs () =
  let c =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.T; qubits = [ 0 ] };
        { gate = Gate.Tdg; qubits = [ 0 ] };
        { gate = Gate.S; qubits = [ 1 ] };
      ]
  in
  let c' = Qpasses.Peephole.run c in
  checki "only s survives" 1 (Circuit.size c')

let test_peephole_merges_rotations () =
  let c =
    Circuit.create 2
      [
        { gate = Gate.RZ 0.3; qubits = [ 0 ] };
        { gate = Gate.RZ 0.4; qubits = [ 0 ] };
        { gate = Gate.CP 0.2; qubits = [ 0; 1 ] };
        { gate = Gate.CP (-0.2); qubits = [ 0; 1 ] };
      ]
  in
  let c' = Qpasses.Peephole.run c in
  checki "one rz survives" 1 (Circuit.size c');
  match Circuit.instrs c' with
  | [ { gate = Gate.RZ a; _ } ] -> Alcotest.(check (float 1e-9)) "merged angle" 0.7 a
  | _ -> Alcotest.fail "expected merged rz"

let test_peephole_respects_blocking () =
  (* h between the two cx prevents cancellation *)
  let c =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  checki "nothing removed" 3 (Circuit.size (Qpasses.Peephole.run c))

let test_peephole_chain_collapse () =
  (* removal exposes a new pair: cx h h cx collapses entirely *)
  let c =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  checki "all removed" 0 (Circuit.size (Qpasses.Peephole.run c))

let test_peephole_preserves_unitary () =
  let rng = Rng.create 33 in
  for _ = 1 to 15 do
    let c = random_2q_circuit rng 3 25 in
    let c' = Qpasses.Peephole.run c in
    check "unitary preserved" true
      (Mat.equal_up_to_phase (Circuit.unitary c') (Circuit.unitary c));
    check "never grows" true (Circuit.size c' <= Circuit.size c)
  done

(* ---------- heavy-hex devices ---------- *)

let test_heavy_hex_structure () =
  let h = Topology.Devices.heavy_hex 3 3 in
  check "connected" true (Topology.Coupling.is_connected_graph h);
  let max_deg =
    List.fold_left max 0
      (List.init (Topology.Coupling.n_qubits h) (Topology.Coupling.degree h))
  in
  checki "heavy-hex max degree 3" 3 max_deg;
  check "too small rejected" true
    (try
       ignore (Topology.Devices.heavy_hex 1 5);
       false
     with Invalid_argument _ -> true)

let test_heavy_hex_routable () =
  let h = Topology.Devices.heavy_hex 4 4 in
  let c = Qbench.Generators.qft 10 in
  let r =
    Qroute.Pipeline.transpile
      ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config) h c
  in
  check "valid" true (Qroute.Sabre.check_routed h r.circuit)

(* ---------- equivalence checker ---------- *)

let test_equiv_unitary () =
  let bell =
    Circuit.create 2 [ { gate = Gate.H; qubits = [ 0 ] }; { gate = Gate.CX; qubits = [ 0; 1 ] } ]
  in
  check "self equal" true (Qsim.Equiv.unitary_equal bell bell);
  let other = Circuit.create 2 [ { gate = Gate.CX; qubits = [ 0; 1 ] } ] in
  check "different" false (Qsim.Equiv.unitary_equal bell other)

let test_equiv_routed_detects_errors () =
  let rng = Rng.create 91 in
  let c = random_2q_circuit rng 4 20 in
  let coupling = Topology.Devices.linear 5 in
  let sabre c =
    Qroute.Pipeline.route ~router:Qroute.Pipeline.Sabre_router coupling c
      Qroute.Engine.default_params
  in
  let r = sabre c in
  let routed = r.circuit in
  check "correct routing accepted" true
    (Qsim.Equiv.routed_equal ~logical:c ~routed ~final_layout:r.final_layout);
  (* corrupt the routed circuit: flip a data wire at the very end (always
     observable, unlike dropping a gate whose control happens to be |0>) *)
  let broken = Circuit.append routed Gate.X [ r.final_layout.(0) ] in
  check "corruption detected" false
    (Qsim.Equiv.routed_equal ~logical:c ~routed:broken ~final_layout:r.final_layout);
  (* wrong layout detected, on a state that is asymmetric in the swapped
     wires (|1100>) so the mix-up is observable *)
  let asym =
    Circuit.create 4
      [
        { gate = Gate.X; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 2; 3 ] };
      ]
  in
  let ra = sabre asym in
  let routed_a = ra.circuit in
  check "asym routing correct" true
    (Qsim.Equiv.routed_equal ~logical:asym ~routed:routed_a ~final_layout:ra.final_layout);
  let wrong = Array.copy ra.final_layout in
  let tmp = wrong.(0) in
  wrong.(0) <- wrong.(3);
  wrong.(3) <- tmp;
  check "wrong layout detected" false
    (Qsim.Equiv.routed_equal ~logical:asym ~routed:routed_a ~final_layout:wrong)

let test_equiv_distribution_distance () =
  let rng = Rng.create 92 in
  let c = random_2q_circuit rng 3 15 in
  let coupling = Topology.Devices.linear 4 in
  let r =
    Qroute.Pipeline.route ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config)
      coupling c Qroute.Engine.default_params
  in
  let d =
    Qsim.Equiv.distribution_distance ~logical:c ~routed:r.circuit
      ~final_layout:r.final_layout
  in
  check "zero distance for correct routing" true (d < 1e-9)

(* ---------- analysis ---------- *)

let test_histogram () =
  let c = Qbench.Generators.ghz_chain 5 in
  match Analysis.gate_histogram c with
  | (top, cnt) :: _ ->
      check "cx dominates" true (top = "cx");
      checki "cx count" 4 cnt
  | [] -> Alcotest.fail "empty histogram"

let test_interaction_graph () =
  let c = Qbench.Generators.vqe 8 in
  let g = Analysis.interaction_graph c in
  (* full entanglement, 3 reps: every pair appears 3 times *)
  checki "pairs" 28 (Hashtbl.length g);
  Hashtbl.iter (fun _ v -> checki "each pair thrice" 3 v) g;
  let deg = Analysis.interaction_degree c in
  Array.iter (fun d -> checki "per-qubit interactions" 21 d) deg

let test_parallelism_profile () =
  let c =
    Circuit.create 4
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.H; qubits = [ 1 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let p = Analysis.parallelism_profile c in
  check "profile" true (p = [| 2; 1 |])

let test_critical_path () =
  let c = Qbench.Generators.ghz_chain 6 in
  let path = Analysis.critical_path c in
  checki "path length = depth" (Circuit.depth c) (List.length path);
  check "monotone indices" true
    (List.sort compare path = path)

let test_two_qubit_layers () =
  let c =
    Circuit.create 4
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 2; 3 ] };
        { gate = Gate.CX; qubits = [ 1; 2 ] };
      ]
  in
  checki "2q depth" 2 (Analysis.two_qubit_layers c)

(* ---------- extra benchmarks ---------- *)

let test_ghz_state () =
  let s = Qsim.State.create 5 in
  Qsim.State.apply_circuit s (Qbench.Generators.ghz_chain 5);
  Alcotest.(check (float 1e-9)) "p(00000)" 0.5 (Qsim.State.probability s 0);
  Alcotest.(check (float 1e-9)) "p(11111)" 0.5 (Qsim.State.probability s 31)

let test_w_state () =
  let n = 5 in
  let s = Qsim.State.create n in
  Qsim.State.apply_circuit s (Qbench.Extras.w_state n);
  (* exactly the n single-excitation states, each with probability 1/n *)
  let total_single = ref 0.0 in
  for q = 0 to n - 1 do
    let idx = 1 lsl (n - 1 - q) in
    let p = Qsim.State.probability s idx in
    check "uniform single excitation" true (Float.abs (p -. (1.0 /. float_of_int n)) < 1e-9);
    total_single := !total_single +. p
  done;
  Alcotest.(check (float 1e-9)) "all weight on singles" 1.0 !total_single

let test_qaoa_structure () =
  let c = Qbench.Extras.qaoa_maxcut ~p:2 10 in
  checki "qubits" 10 (Circuit.n_qubits c);
  checki "rzz count" 30 (Circuit.gate_count c "rzz");
  check "deterministic" true (Circuit.equal c (Qbench.Extras.qaoa_maxcut ~p:2 10))

let test_extended_suite_routable () =
  List.iter
    (fun (e : Qbench.Suite.entry) ->
      if not e.heavy then begin
        let c = e.build () in
        let r =
          Qroute.Pipeline.transpile
            ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config)
            Topology.Devices.montreal c
        in
        check (e.name ^ " routable") true
          (Qroute.Sabre.check_routed Topology.Devices.montreal r.circuit)
      end)
    (List.filteri (fun i _ -> i >= List.length Qbench.Suite.paper_suite)
       Qbench.Extras.extended_suite)

let () =
  Alcotest.run "extensions"
    [
      ( "astar",
        [
          Alcotest.test_case "layers" `Quick test_astar_layers;
          Alcotest.test_case "validity + semantics" `Quick test_astar_validity_and_semantics;
          Alcotest.test_case "trivially routable" `Quick test_astar_no_swaps_when_trivially_routable;
          Alcotest.test_case "pipeline integration" `Quick test_astar_in_pipeline;
        ] );
      ( "peephole",
        [
          Alcotest.test_case "inverse pairs" `Quick test_peephole_cancels_inverse_pairs;
          Alcotest.test_case "rotation merge" `Quick test_peephole_merges_rotations;
          Alcotest.test_case "blocking" `Quick test_peephole_respects_blocking;
          Alcotest.test_case "chain collapse" `Quick test_peephole_chain_collapse;
          Alcotest.test_case "preserves unitary" `Quick test_peephole_preserves_unitary;
        ] );
      ( "heavy_hex",
        [
          Alcotest.test_case "structure" `Quick test_heavy_hex_structure;
          Alcotest.test_case "routable" `Quick test_heavy_hex_routable;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "unitary" `Quick test_equiv_unitary;
          Alcotest.test_case "detects errors" `Quick test_equiv_routed_detects_errors;
          Alcotest.test_case "distribution distance" `Quick test_equiv_distribution_distance;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "interaction graph" `Quick test_interaction_graph;
          Alcotest.test_case "parallelism" `Quick test_parallelism_profile;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "2q layers" `Quick test_two_qubit_layers;
        ] );
      ( "extras",
        [
          Alcotest.test_case "ghz" `Quick test_ghz_state;
          Alcotest.test_case "w state" `Quick test_w_state;
          Alcotest.test_case "qaoa" `Quick test_qaoa_structure;
          Alcotest.test_case "extended suite" `Quick test_extended_suite_routable;
        ] );
    ]
