(** Commutative gate cancellation (Qiskit's CommutativeCancellation analog).

    Within each commute set, pairs of identical self-inverse gates acting on
    the same qubits annihilate, and z-rotations on the same wire merge.
    This is the pass that turns the paper's "the first CNOT of a SWAP
    cancels a neighbouring CNOT through commutation" insight into actual
    gate-count reductions after routing.

    A round finds its groups in one open-addressing table keyed by an int
    hash of the group's kind (the gate's tag, or "z rotation") and the
    ops' commute-set ids ({!Commutation.sets_hash}); a hit is confirmed by
    comparing every operand's set id ({!Commutation.same_sets}), so gates
    of any width take the same path.  The candidates arrive in ascending
    op id and each group chains its members from the latest back, so no
    group is sorted: a self-inverse group removes all its members but the
    latest when their count is odd, and all of them otherwise, and a z
    group's angles are summed from [0.0] in ascending op id into its
    latest member.  Groups are disjoint, so the order in which they are
    visited cannot change the output.

    Observability: [cancellation.gates_cancelled] counts removed ops and
    [cancellation.z_rotations_merged] the merged z-rotation groups, on the
    current {!Qobs} collector.  {!run_fixpoint} splits its time into the
    spans [cancellation.analyze], [cancellation.round],
    [cancellation.rescan] and [cancellation.emit]. *)

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
