type entry = {
  name : string;
  n_qubits : int;
  build : unit -> Qcircuit.Circuit.t;
  heavy : bool;
  noise_subset : bool;
}

let entry ?(heavy = false) ?(noise = false) name n build =
  { name; n_qubits = n; build; heavy; noise_subset = noise }

let paper_suite =
  [
    entry "Grover 4-qubits" 4 (fun () -> Generators.grover 4) ~noise:true;
    entry "Grover 6-qubits" 6 (fun () -> Generators.grover 6) ~noise:true;
    entry "Grover 8-qubits" 8 (fun () -> Generators.grover 8);
    entry "VQE 8-qubits" 8 (fun () -> Generators.vqe 8) ~noise:true;
    entry "VQE 12-qubits" 12 (fun () -> Generators.vqe 12);
    entry "BV 19-qubits" 19 (fun () -> Generators.bernstein_vazirani 19);
    entry "QFT 15-qubits" 15 (fun () -> Generators.qft 15);
    entry "QFT 20-qubits" 20 (fun () -> Generators.qft 20);
    entry "QPE 9-qubits" 9 (fun () -> Generators.qpe 9) ~noise:true;
    entry "Adder 10-qubits" 10 (fun () -> Generators.adder 10) ~noise:true;
    entry "Multiplier 25-qubits" 25 (fun () -> Generators.multiplier 25);
    entry "sqn_258" 10 (fun () -> Revlib_like.sqn_258 ()) ~heavy:true;
    entry "rd84_253" 12 (fun () -> Revlib_like.rd84_253 ()) ~heavy:true;
    entry "co14_215" 15 (fun () -> Revlib_like.co14_215 ()) ~heavy:true;
    entry "sym9_193" 11 (fun () -> Revlib_like.sym9_193 ()) ~heavy:true;
  ]

let find name = List.find (fun e -> e.name = name) paper_suite
let small_suite = List.filter (fun e -> not e.heavy) paper_suite

(* matrix-family workloads appended to the router comparison so the paper
   snapshot pins the broader scenario surface (random-density, QAOA on
   Erdős–Rényi graphs, brickwork, ladder/GHZ chains), not just the paper's
   circuits *)
let matrix_regress_entries =
  [
    entry "RandDense 8-qubits" 8 (fun () ->
        Generators.random_density ~seed:11 ~gates:60 ~density:0.5 8);
    entry "QAOA-ER 8-qubits" 8 (fun () ->
        Generators.qaoa_erdos_renyi ~seed:11 ~p:2 ~edge_prob:0.5 8);
    entry "Brickwork 8-qubits" 8 (fun () ->
        Generators.supremacy_brickwork ~seed:11 ~cycles:6 8);
    entry "Ladder 8-qubits" 8 (fun () -> Generators.cx_ladder ~rounds:3 8);
    entry "GHZ-chain 12-qubits" 12 (fun () -> Generators.ghz_chain 12);
  ]
