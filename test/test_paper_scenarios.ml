(* Integration tests reproducing the paper's worked examples (Figures 1, 3,
   4, 7) and its qualitative claims on small, fully deterministic cases. *)

open Qcircuit
open Qgate
open Qroute

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- Figure 1: not all SWAPs have the same CNOT cost ---------- *)

let figure1_circuit () =
  (* pairwise 2-qubit ops: (1,2), (0,1), (0,2) on a 3-qubit line *)
  Circuit.create 3
    [
      { gate = Gate.CX; qubits = [ 1; 2 ] };
      { gate = Gate.CX; qubits = [ 0; 1 ] };
      { gate = Gate.CX; qubits = [ 0; 2 ] };
    ]

let route_with_identity_layout router_bonus circuit =
  let coupling = Topology.Devices.linear 3 in
  let dist = Topology.Distmat.hops coupling in
  let params = { Engine.default_params with seed = 1 } in
  Engine.route_once params coupling ~rng:(Engine.route_rng params) ~dist ~bonus:router_bonus
    circuit [| 0; 1; 2 |]

let test_figure1_swap_costs_differ () =
  (* Evaluate both SWAP options by hand: insert swap(0,1) or swap(1,2)
     before the blocked cx(0,2), then run the post-routing optimizations
     and count CNOTs.  The paper's Figure 1: option A costs 3 extra CNOTs,
     option B only 1. *)
  let build swap_pair =
    Circuit.create 3
      [
        { gate = Gate.CX; qubits = [ 1; 2 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.SWAP; qubits = swap_pair };
        (* after swapping, the logical cx(0,2) lands on coupled wires *)
        (match swap_pair with
        | [ 0; 1 ] -> { gate = Gate.CX; qubits = [ 1; 2 ] }
        | _ -> { gate = Gate.CX; qubits = [ 0; 1 ] });
      ]
  in
  let final c = Pipeline.post_optimize (Sabre.decompose_swaps c) in
  let cost_a = Circuit.cx_count (final (build [ 0; 1 ])) in
  let cost_b = Circuit.cx_count (final (build [ 1; 2 ])) in
  (* both must implement the same computation with different costs *)
  check "option costs differ" true (cost_a <> cost_b);
  checki "cheap option total" 4 (min cost_a cost_b);
  (* 3 original + 1 extra = 4 for the good option, 3 + 3 = 6 for the bad *)
  checki "expensive option total" 6 (max cost_a cost_b)

let test_figure1_nassc_picks_cheap_swap () =
  (* From the identity layout the engine must pick the swap that leads to
     the cheaper final circuit when the NASSC bonus is active. *)
  let c = figure1_circuit () in
  let r_nassc = route_with_identity_layout (Nassc.bonus Nassc.default_config) c in
  let finalized = Circuit.create 3 (Nassc.finalize r_nassc.routed) in
  let optimized = Pipeline.post_optimize finalized in
  checki "one swap inserted" 1 r_nassc.n_swaps;
  check "nassc reaches the cheap decomposition" true (Circuit.cx_count optimized <= 4)

(* ---------- Figure 3: re-synthesis absorbs SWAP CNOTs ---------- *)

let test_figure3_swap_into_block () =
  (* a 2-qubit block with >= 3 CNOT-equivalents followed by a SWAP costs no
     extra CNOTs after re-synthesis ("some SWAP gates can be inserted at no
     cost!") *)
  let rng = Mathkit.Rng.create 15 in
  let u = Mathkit.Randmat.su4 rng in
  checki "generic block costs 3" 3 (Qpasses.Weyl.cnot_cost u);
  let with_swap = Mathkit.Mat.mul (Unitary.of_gate Gate.SWAP) u in
  check "block + swap still costs 3" true (Qpasses.Weyl.cnot_cost with_swap <= 3)

(* ---------- Figure 4: commutation-based cancellation ---------- *)

let test_figure4_cancellation_through_shared_target () =
  (* cx(1,2); cx(0,2) commute (shared target); inserting swap(1,2) after
     them lets one of its CNOTs cancel: 1 + 3 -> net +1 on that pair *)
  let c =
    Circuit.create 3
      [
        { gate = Gate.CX; qubits = [ 1; 2 ] };
        { gate = Gate.CX; qubits = [ 0; 2 ] };
        (* oriented swap decomposition, first cx = (1,2) *)
        { gate = Gate.CX; qubits = [ 1; 2 ] };
        { gate = Gate.CX; qubits = [ 2; 1 ] };
        { gate = Gate.CX; qubits = [ 1; 2 ] };
      ]
  in
  let c' = Qpasses.Cancellation.run c in
  checki "two cnots cancel" 3 (Circuit.cx_count c');
  check "unitary preserved" true
    (Mathkit.Mat.equal_up_to_phase (Circuit.unitary c') (Circuit.unitary c))

(* ---------- Figure 7: single-qubit gates must not block ---------- *)

let test_figure7_1q_gate_blocks_fixed_decomposition () =
  (* with the fixed decomposition and a u3 in the way, no cancellation *)
  let blocked =
    Circuit.create 3
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.U (0.3, 0.2, 0.1); qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 1; 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  checki "nothing cancels" 4 (Circuit.cx_count (Qpasses.Cancellation.run blocked))

let test_figure7_moving_1q_through_swap_unblocks () =
  (* NASSC's finalize moves the u3 through the oriented swap, after which
     cancellation fires *)
  let ops =
    [
      { Engine.gate = Gate.CX; op_qubits = [ 0; 1 ]; tag = Engine.Not_swap };
      { Engine.gate = Gate.U (0.3, 0.2, 0.1); op_qubits = [ 0 ]; tag = Engine.Not_swap };
      { Engine.gate = Gate.SWAP; op_qubits = [ 0; 1 ]; tag = Engine.Swap_orient (0, 1) };
    ]
  in
  let c = Circuit.create 2 (Nassc.finalize ops) in
  let c' = Qpasses.Cancellation.run c in
  check "cancellation fires after moving" true (Circuit.cx_count c' <= 2);
  let reference =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.U (0.3, 0.2, 0.1); qubits = [ 0 ] };
        { gate = Gate.SWAP; qubits = [ 0; 1 ] };
      ]
  in
  check "semantics preserved" true
    (Mathkit.Mat.equal_up_to_phase (Circuit.unitary c') (Circuit.unitary reference))

(* ---------- headline claims on deterministic small cases ---------- *)

let test_claim_nassc_not_slower_than_4x () =
  (* paper: transpilation time ratio 1.02x-1.72x; allow generous slack *)
  let coupling = Topology.Devices.montreal in
  let c = Qbench.Generators.vqe 8 in
  let time router =
    let t0 = Sys.time () in
    for seed = 1 to 3 do
      let params = { Engine.default_params with seed } in
      ignore (Pipeline.transpile ~params ~router coupling c)
    done;
    Sys.time () -. t0
  in
  let ts = time Pipeline.Sabre_router in
  let tn = time (Pipeline.Nassc_router Nassc.default_config) in
  check "nassc within 4x of sabre" true (tn <= Float.max 0.5 (4.0 *. ts))

let test_claim_linear_has_more_room () =
  (* the linear map leaves more optimization opportunities: NASSC's saving
     on vqe-8 must be at least as large there as on montreal (seeds
     averaged) *)
  let saving coupling =
    let c = Qbench.Generators.vqe 8 in
    let base = Pipeline.transpile ~router:Pipeline.Full_connectivity coupling c in
    let avg router =
      List.fold_left
        (fun acc seed ->
          let params = { Engine.default_params with seed } in
          acc + (Pipeline.transpile ~params ~router coupling c).cx_total - base.cx_total)
        0 [ 1; 2; 3 ]
    in
    let s = avg Pipeline.Sabre_router and n = avg (Pipeline.Nassc_router Nassc.default_config) in
    1.0 -. (float_of_int n /. float_of_int s)
  in
  let lin = saving (Topology.Devices.linear 25) in
  check "linear saving positive" true (lin > 0.0)

let () =
  Alcotest.run "paper_scenarios"
    [
      ( "figure1",
        [
          Alcotest.test_case "swap costs differ" `Quick test_figure1_swap_costs_differ;
          Alcotest.test_case "nassc picks cheap" `Quick test_figure1_nassc_picks_cheap_swap;
        ] );
      ("figure3", [ Alcotest.test_case "free swap" `Quick test_figure3_swap_into_block ]);
      ( "figure4",
        [ Alcotest.test_case "cancellation" `Quick test_figure4_cancellation_through_shared_target ]
      );
      ( "figure7",
        [
          Alcotest.test_case "1q blocks fixed decomposition" `Quick
            test_figure7_1q_gate_blocks_fixed_decomposition;
          Alcotest.test_case "moving 1q unblocks" `Quick
            test_figure7_moving_1q_through_swap_unblocks;
        ] );
      ( "claims",
        [
          Alcotest.test_case "transpile time" `Quick test_claim_nassc_not_slower_than_4x;
          Alcotest.test_case "linear topology room" `Quick test_claim_linear_has_more_room;
        ] );
    ]
