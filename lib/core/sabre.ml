open Qgate
open Topology

type result = {
  circuit : Qcircuit.Circuit.t;
  initial_layout : int array;
  final_layout : int array;
  n_swaps : int;
}

let c_decomposed = Qobs.counter "sabre.swaps_decomposed"

let decompose_swaps c =
  let expand (i : Qcircuit.Circuit.instr) =
    match (i.gate, i.qubits) with
    | Gate.SWAP, [ a; b ] ->
        Qobs.incr c_decomposed;
        [
          { Qcircuit.Circuit.gate = Gate.CX; qubits = [ a; b ] };
          { Qcircuit.Circuit.gate = Gate.CX; qubits = [ b; a ] };
          { Qcircuit.Circuit.gate = Gate.CX; qubits = [ a; b ] };
        ]
    | _ -> [ i ]
  in
  Qcircuit.Circuit.create (Qcircuit.Circuit.n_qubits c)
    (List.concat_map expand (Qcircuit.Circuit.instrs c))

let check_routed coupling c =
  List.for_all
    (fun (i : Qcircuit.Circuit.instr) ->
      match (Gate.is_two_qubit i.gate, i.qubits) with
      | true, [ a; b ] -> Coupling.connected coupling a b
      | _ -> true)
    (Qcircuit.Circuit.instrs c)
