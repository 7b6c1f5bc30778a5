(** Layer-partitioned A* routing (Zulehner, Paler, Wille - TCAD 2018), the
    exhaustive-search baseline the paper contrasts SABRE's complexity
    against (Section IV-H).

    The circuit is partitioned into layers of independently executable
    two-qubit gates; for each layer an A* search over SWAP insertions finds
    a mapping under which every layer gate is executable.  The admissible
    heuristic is the sum over layer gates of [distance - 1] (each SWAP
    reduces one gate's distance by at most one).  Search effort is bounded
    by 4000 node expansions per layer; on exhaustion the layer falls back
    to greedy shortest-path insertion, so routing always terminates. *)

val route : seed:int -> Topology.Coupling.t -> Qcircuit.Circuit.t -> Sabre.result
(** Route a (<=2-qubit-gate) circuit from the random initial layout drawn
    with [seed].  SWAPs are emitted as [SWAP] gates ({!Sabre.decompose_swaps}
    applies the fixed decomposition downstream). *)

val layers : Qcircuit.Circuit.t -> Qcircuit.Circuit.instr list list
(** The layer partition (exposed for tests): consecutive groups of gates
    with disjoint qubits, in dependency order. *)
