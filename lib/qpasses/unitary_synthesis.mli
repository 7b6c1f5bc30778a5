(** Two-qubit block re-synthesis (Qiskit's Collect2qBlocks +
    UnitarySynthesis, Section III of the paper).

    Each collected block's 4x4 unitary is re-synthesized by the KAK
    decomposer; the new body replaces the block when it spends fewer CNOTs
    (or the same CNOTs with fewer total gates).  This is the optimization
    that can make an inserted SWAP cost 2, 1 or even 0 extra CNOTs.

    The decision is made before the body is built.  {!Synth2q.kak} gives
    the block's class [cls], the exact CNOT count of any replacement, and
    a replacement has at least {!Synth2q.core_length}[ cls] ops.  So the
    block is kept, with nothing more built, when [cls] exceeds the CNOTs it
    spends now, or equals them and the block has no more ops than the
    core.  Only otherwise does {!Synth2q.of_kak} build the replacement,
    which then replaces the block under the rule above.  Both orders make
    the same decision on every block.

    Within one [run] call, each block's decision (keep, or the replacement
    body on the block's two local qubits) is memoized by the block's exact
    signature ({!Blocks.signature} of its ops, with the low wire as local
    qubit 0).  The decision is a pure function of that signature,
    so a hit yields exactly the output an independent re-synthesis would.
    On the [bench/e2e] workloads 84-93% of blocks repeat a signature seen
    earlier in the same call.  The table lives only for the call, so
    outputs and Qobs counters do not depend on worker count or on earlier
    calls.  [synth.blocks_considered] and [synth.blocks_resynthesized]
    count every block, hits included; this pass adds to
    [synth2q.kak_decompositions] on misses only. *)

val run : Qcircuit.Circuit.t -> Qcircuit.Circuit.t

val keep_by_class : cls:int -> cx:int -> ops:int -> bool
(** The class-first keep: a block of [ops] ops spending [cx] CNOTs, whose
    unitary is of class [cls], is kept without building a replacement.
    True exactly when even a replacement of {!Synth2q.core_length}[ cls]
    ops, the fewest any replacement has, would not replace the block. *)
