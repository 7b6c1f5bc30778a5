(** Commutative gate cancellation (Qiskit's CommutativeCancellation analog).

    Within each commute set, pairs of identical self-inverse gates acting on
    the same qubits annihilate, and z-rotations on the same wire merge.
    This is the pass that turns the paper's "the first CNOT of a SWAP
    cancels a neighbouring CNOT through commutation" insight into actual
    gate-count reductions after routing.

    Observability: [cancellation.gates_cancelled] counts removed ops and
    [cancellation.z_rotations_merged] the merged z-rotation groups, on the
    current {!Qobs} collector. *)

val run : Qcircuit.Circuit.t -> Qcircuit.Circuit.t
(** One round over the whole circuit.  Does not count
    [cancellation.rounds]. *)

val run_fixpoint : ?max_rounds:int -> Qcircuit.Circuit.t -> Qcircuit.Circuit.t
(** Repeat rounds until one removes no gate, at most [max_rounds] (default
    5).  The output is the circuit that applying {!run} to its own output
    the same number of times would give.  The first round regroups every
    op; each later round regroups only the ops of the commute sets that
    {!Commutation.rescan} re-formed after the previous round's removals and
    merges, since a set it left alone cannot hold two interchangeable ops.
    [cancellation.rounds] counts every round run, including the final one
    that removes nothing and so confirms the fixpoint. *)
