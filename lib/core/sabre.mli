(** SABRE (Li, Ding, Xie - ASPLOS 2019), the paper's baseline: what is
    left of it outside the shared engine.

    SABRE routing itself is {!Pipeline.route} with the engine's zero bonus:
    a random initial layout refined by reverse traversal, then a final
    forward pass with the distance-only lookahead heuristic, every SWAP
    decomposed into the fixed three-CNOT template. *)

type result = {
  circuit : Qcircuit.Circuit.t;  (** over the device's physical qubits *)
  initial_layout : int array;  (** logical -> physical *)
  final_layout : int array;
  n_swaps : int;
}
(** A routed circuit with its layouts and inserted SWAP count. *)

val decompose_swaps : Qcircuit.Circuit.t -> Qcircuit.Circuit.t
(** Expand each SWAP into the fixed cx(a,b) cx(b,a) cx(a,b) template,
    counting each in [sabre.swaps_decomposed].  The A* router's SWAPs take
    this path; the engine routers' untagged SWAPs get the same template
    from {!Nassc.finalize}. *)

val check_routed : Topology.Coupling.t -> Qcircuit.Circuit.t -> bool
(** Every two-qubit gate acts on coupled physical qubits. *)
