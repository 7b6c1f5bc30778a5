(** Hybrid windowed-exact router.

    The NASSC routing engine with {!Exact.solve_window} installed as the
    engine's window hook, run as a two-pass portfolio: one pass where
    every stuck front layer of [min_window_pairs]..[max_window_pairs]
    two-qubit gates is routed to adjacency with a provably minimal SWAP
    sequence (wider fronts and windows whose exact search exceeds
    [node_budget] nodes fall back to the heuristic scoring for that
    step), and one plain NASSC pass from the same layout.  The pass that
    inserted fewer SWAPs wins, ties going to the heuristic — so at equal
    seeds the hybrid never inserts more SWAPs than NASSC, and the oracle
    pays off exactly where joint multi-gate fronts defeat the
    one-swap-at-a-time heuristic.  Layout search is the same
    bidirectional heuristic scheme the other routers use.

    Budgets are node counts, never wall clock, so the router is a pure
    function of (circuit, coupling, seed): byte-identical across runs and
    worker counts, like every other router in the repo.

    Observability: [hybrid.windows_solved] / [hybrid.fallback_steps] /
    [hybrid.exact_pass_selected] counters, the [hybrid.route] span, and
    the oracle's own [exact.*] counters.  Only the winning pass is
    replayed into the flight recorder; oracle swaps appear there as
    single-candidate steps under router ["hybrid"]. *)

type config = {
  min_window_pairs : int;
      (** narrowest front handed to the oracle; below this the heuristic's
          lookahead term is strictly more informed (default 2) *)
  max_window_pairs : int;
      (** widest front layer (in two-qubit gates) handed to the oracle *)
  node_budget : int;  (** per-window node budget for the exact search *)
  nassc : Nassc.config;  (** bonus configuration for the heuristic steps *)
}

val default_config : config
(** 2–3-pair windows, 4096 nodes per window, NASSC defaults. *)

val route :
  ?params:Engine.params ->
  ?config:config ->
  ?dist:Topology.Distmat.t ->
  ?plans:Engine.plans ->
  Topology.Coupling.t ->
  Qcircuit.Circuit.t ->
  Sabre.result
(** Route [circuit] (lowered to <=2-qubit gates) onto [coupling].  [dist]
    must be the hop-count matrix ({!Sabre.hop_distance}, built when absent)
    and [plans] {!Engine.plans} of [circuit] (built when absent).  Same
    contract as {!Nassc.route}: SWAPs are decomposed by {!Nassc.finalize}
    (oriented when the bonus tagged them), and the result carries the
    initial/final layouts and the SWAP count. *)
