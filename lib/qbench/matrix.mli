(** The benchmark matrix: routers x topologies x circuit families
    ([bench --only matrix]), after the IQM router-benchmarking methodology
    (arXiv:2502.03908).

    Each cell reports [cx_total]/[n_swaps]/[depth] next to the depth
    overhead over the Full-connectivity-optimized baseline and the analytic
    estimated success probability (ESP) under the topology's synthetic
    calibration — the metrics that catch routers which win on SWAP count
    but lose on depth or fidelity.  Every cell value is a deterministic
    function of (instance, topology, router, seed), identical for any
    worker count; there are no wall-clock fields. *)

type instance = {
  family : string;  (** family key: random, qaoa-er, brickwork, ghz, ladder *)
  instance : string;  (** parameter tag, e.g. ["g60-d0.40-8q"] *)
  n_qubits : int;
  build : unit -> Qcircuit.Circuit.t;
}

val instances : quick:bool -> instance list
(** The family axis.  [quick]: one small (<= 5-qubit) instance per family,
    the CI/golden subset.  Full: parameter sweeps (2q-gate density 0.2-0.8,
    QAOA edge probability 0.3-0.8, two sizes per structural family). *)

val quick_topologies : unit -> (string * Topology.Coupling.t) list
(** line5, grid2x3, heavyhex2x2. *)

val golden_topologies : unit -> (string * Topology.Coupling.t) list
(** line5 and grid2x3 only — the checked-in [matrix.golden] subset. *)

val full_topologies : unit -> (string * Topology.Coupling.t) list
(** line12, ring12, grid3x4, heavyhex2x3, montreal. *)

type cell = {
  family : string;
  instance : string;
  topology : string;
  router : string;
  n_qubits : int;
  base_cx : int;  (** Full-connectivity-optimized CNOTs of the instance *)
  base_depth : int;  (** ... and its depth: the overhead denominator *)
  cx_total : int;
  depth : int;
  n_swaps : int;
  depth_overhead : float;  (** [depth / max 1 base_depth] *)
  esp : float;
      (** analytic estimated success probability of the routed circuit
          under [Topology.Calibration.generate] for the cell's topology *)
  rec_steps : int;  (** flight-recorder totals across the cell's trials *)
  rec_candidates : int;
}

val default_seed : int
val default_trials : int

val run :
  ?seed:int ->
  ?trials:int ->
  ?workers:int ->
  instances:instance list ->
  topologies:(string * Topology.Coupling.t) list ->
  unit ->
  cell list
(** Evaluate every (instance, topology, router) cell, in axis order
    (instances outermost, then topologies, then {!Qroute.Pipeline.routers}).
    Instances wider than a topology are skipped (counted on
    [matrix.cells_skipped]).  Defaults:
    [seed] 11, [trials] 4; results are independent of [workers].
    Counters: [matrix.cells], [matrix.esp_evals], [matrix.cells_skipped]
    (recorded when a {!Qobs} collector is installed). *)

val schema_version : int
val kind : string

val to_json :
  suite:string -> seed:int -> trials:int -> cell list -> Jsonlite.t
(** The schema-versioned [BENCH_<sha>-matrix.json] document. *)

val markdown : cell list -> string
(** The rendered comparison table (GitHub-flavored markdown). *)

val golden_lines : cell list -> string
(** One deterministic line per cell — the [test/goldens/matrix.golden]
    format.  Floats use {!Jsonlite.number_to_string}, so the lines are
    exact. *)
