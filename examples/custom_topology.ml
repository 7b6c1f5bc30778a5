(* Bring-your-own device: define a custom coupling map, inspect its
   distance structure, and route a QFT onto it.  Also demonstrates the
   KAK synthesis API directly on a random two-qubit unitary.

   Run with: dune exec examples/custom_topology.exe *)

open Mathkit

let () =
  (* A 12-qubit ring with one chord: not one of the built-in devices. *)
  let ring_edges = List.init 12 (fun i -> (i, (i + 1) mod 12)) @ [ (0, 6) ] in
  let coupling = Topology.Coupling.create 12 ring_edges in
  Printf.printf "Custom device: %d qubits, %d edges, diameter %d\n"
    (Topology.Coupling.n_qubits coupling)
    (List.length (Topology.Coupling.edges coupling))
    (Topology.Coupling.diameter coupling);
  Printf.printf "Shortest path 2 -> 9: %s\n\n"
    (String.concat " -> "
       (List.map string_of_int (Topology.Coupling.shortest_path coupling 2 9)));

  (* Route an 8-qubit QFT onto the ring with both routers. *)
  let circuit = Qbench.Generators.qft 8 in
  let base = Qroute.Pipeline.transpile ~router:Qroute.Pipeline.Full_connectivity coupling circuit in
  Printf.printf "QFT-8: %d CNOTs unrouted\n" base.cx_total;
  List.iter
    (fun (label, router) ->
      let r = Qroute.Pipeline.transpile ~router coupling circuit in
      Printf.printf "  %-6s -> %3d CNOTs (+%d), depth %d, %d swaps\n" label r.cx_total
        (r.cx_total - base.cx_total) r.depth r.n_swaps)
    [
      ("SABRE", Qroute.Pipeline.Sabre_router);
      ("NASSC", Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config);
    ];

  (* Direct use of the synthesis layer: decompose a Haar-random two-qubit
     unitary and verify it numerically. *)
  print_newline ();
  let rng = Rng.create 2022 in
  let u = Randmat.su4 rng in
  let x, y, z = Qpasses.Weyl.coords u in
  Printf.printf "Random SU(4): Weyl coordinates (%.4f, %.4f, %.4f), CNOT cost %d\n" x y z
    (Qpasses.Weyl.cnot_cost u);
  let ops = Qpasses.Synth2q.synthesize u in
  let cx = List.length (List.filter (fun (g, _) -> g = Qgate.Gate.CX) ops) in
  let exact =
    Mat.equal_up_to_phase (Qpasses.Blocks.unitary ~zero:0 fst snd ops) u
  in
  Printf.printf "Synthesized with %d gates (%d CNOTs); reconstruction exact: %b\n"
    (List.length ops) cx exact
