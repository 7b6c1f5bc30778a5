(** The hybrid windowed-exact router's oracle.

    The hybrid router is {!Pipeline.route} with this hook installed as the
    engine's window hook, run as a two-pass portfolio: one pass where every
    stuck front layer of two or three two-qubit gates is routed to
    adjacency with a provably minimal SWAP sequence (wider fronts and
    windows whose exact search exceeds 4096 nodes fall back to the
    heuristic scoring for that step), and one plain NASSC pass from the
    same layout.  The pass that inserted fewer SWAPs wins, ties going to
    the heuristic — so at equal seeds the hybrid never inserts more SWAPs
    than NASSC, and the oracle pays off exactly where joint multi-gate
    fronts defeat the one-swap-at-a-time heuristic.  Layout search is the
    same bidirectional heuristic scheme the other routers use.

    Budgets are node counts, never wall clock, so the router is a pure
    function of (circuit, coupling, seed): byte-identical across runs and
    worker counts, like every other router in the repo.

    Observability: [hybrid.windows_solved] / [hybrid.fallback_steps]
    counters here, [hybrid.exact_pass_selected] and the [hybrid.route]
    span in {!Pipeline.route}, and the oracle's own [exact.*] counters.
    Only the winning pass is replayed into the flight recorder; oracle
    swaps appear there as single-candidate steps under router
    ["hybrid"]. *)

val window :
  Topology.Coupling.t ->
  dist:Topology.Distmat.t ->
  front:(int * int) list ->
  (int * int) list option
(** [window coupling ~dist] is the hook for {!Engine.route_once}'s
    [?window]: a minimal SWAP sequence for a stuck front of two or three
    physical pairs, [None] otherwise.  [dist] must be the hop-count matrix
    ({!Topology.Distmat.hops}). *)
