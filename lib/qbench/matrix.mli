(** The axes of the benchmark matrix ({!Experiment.matrix}): routers x
    topologies x circuit families, after the IQM router-benchmarking
    methodology (arXiv:2502.03908). *)

val instances : quick:bool -> Suite.entry list
(** The family axis; each entry is named ["<family> <parameters>"], e.g.
    ["random g60-d0.40-8q"], with family random, qaoa-er, brickwork, ghz
    or ladder.  [quick]: one instance of at most 5 qubits per family, the
    CI and golden subset.  Full: parameter sweeps (2q-gate density
    0.2-0.8, QAOA edge probability 0.3-0.8, two sizes per structural
    family) of at most 12 qubits. *)

val topologies : quick:bool -> (string * Topology.Coupling.t) list
(** [quick]: line5, grid2x3, heavyhex2x2.  Full: line12, ring12, grid3x4,
    heavyhex2x3, montreal.  Each is at least as wide as every instance of
    the same [quick]. *)
