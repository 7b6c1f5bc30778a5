(** SABRE routing (Li, Ding, Xie - ASPLOS 2019), the paper's baseline.

    Random initial layout refined by reverse traversal, then a final forward
    pass with the distance-only lookahead heuristic.  Inserted SWAPs are
    left as [SWAP] gates with the fixed three-CNOT decomposition applied by
    {!decompose_swaps}. *)

type result = {
  circuit : Qcircuit.Circuit.t;  (** over the device's physical qubits *)
  initial_layout : int array;  (** logical -> physical *)
  final_layout : int array;
  n_swaps : int;
}

val hop_distance : Topology.Coupling.t -> Topology.Distmat.t
(** The plain BFS hop-count distance matrix as floats (infinity when
    disconnected); the default routing metric.  Same as
    {!Topology.Distmat.hops}. *)

val route :
  ?params:Engine.params ->
  ?dist:Topology.Distmat.t ->
  ?plans:Engine.plans ->
  Topology.Coupling.t ->
  Qcircuit.Circuit.t ->
  result
(** Route a (<=2-qubit-gate) circuit.  [dist] is the routing metric,
    the hop-count matrix when absent (the noise-aware HA variant passes
    eq. 3's).  [plans], {!Engine.plans} of [circuit], are built when
    absent. *)

val decompose_swaps : Qcircuit.Circuit.t -> Qcircuit.Circuit.t
(** Expand each SWAP into the fixed cx(a,b) cx(b,a) cx(a,b) template. *)

val check_routed : Topology.Coupling.t -> Qcircuit.Circuit.t -> bool
(** Every two-qubit gate acts on coupled physical qubits. *)
