open Qgate
open Topology

type result = {
  circuit : Qcircuit.Circuit.t;
  initial_layout : int array;
  final_layout : int array;
  n_swaps : int;
}

let hop_distance = Distmat.hops

let c_decomposed = Qobs.counter "sabre.swaps_decomposed"

let route ?(params = Engine.default_params) ?dist ?plans coupling circuit =
  Qobs.span "sabre.route" @@ fun () ->
  Qobs.Recorder.in_router "sabre" @@ fun () ->
  let dist = match dist with Some d -> d | None -> hop_distance coupling in
  let bonus = Engine.zero_bonus in
  let plans = match plans with Some p -> p | None -> Engine.plans circuit in
  let layout =
    Engine.find_layout params coupling ~rng:(Engine.layout_rng params) ~dist ~bonus ~plans
      circuit
  in
  let r =
    Engine.route_once params coupling ~rng:(Engine.route_rng params) ~dist ~bonus
      ~plan:plans.forward circuit layout
  in
  {
    circuit = Engine.to_circuit ~n_phys:(Coupling.n_qubits coupling) r.routed;
    initial_layout = r.initial_layout;
    final_layout = r.final_layout;
    n_swaps = r.n_swaps;
  }

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
