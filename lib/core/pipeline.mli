(** End-to-end transpilation flows (paper Figures 2 and 5).

    The flow mirrors Qiskit level-3: decompose to {1q, CX} -> pre-routing
    optimization (1q merge, commutative cancellation, two-qubit block
    re-synthesis; NASSC moves these before routing, Section IV-A) -> layout
    + routing -> post-routing optimization -> hardware-basis emission
    ({rz, sx, x, cx}).

    Observability: install a {!Qobs} collector around {!transpile} to
    record per-pass spans ([pipeline.*], [pass.*], [trial.route]), the
    engine/pass counters, and per-trial gauges — including
    [engine.predicted_cnot_savings] (eq. 1's estimate summed over chosen
    SWAPs) next to [trial.realized_cnot_savings] (CNOTs the post-routing
    passes actually recovered), which makes the paper's central claim a
    runtime metric.  Traced runs reset the per-domain commutation cache at
    transpile and trial start, so traces are deterministic across runs and
    worker counts; untraced runs skip all of it. *)

type router =
  | Full_connectivity  (** no routing: the "original circuit" baseline *)
  | Sabre_router
  | Nassc_router of Nassc.config
  | Sabre_ha  (** SABRE with the noise-aware distance matrix (eq. 3) *)
  | Nassc_ha of Nassc.config
  | Astar_router  (** Zulehner-style layered A* baseline (related work) *)
  | Hybrid_router of Hybrid.config
      (** NASSC engine with exact-oracle front windows ({!Hybrid.route}) *)

(** {2 The router registry}

    The one name -> {!router} table.  Every front end (CLI, bench
    harnesses, benchmark matrix, golden corpora, tests) resolves router
    names here; a subset is a filter over {!routers} (e.g. on
    {!streamable} or {!noise_aware}) or a list of names looked up in it. *)

val routers : (string * router) list
(** The six routing routers with their default configs, in the
    routing-golden column order: sabre, nassc, astar, sabre-ha, nassc-ha,
    hybrid. *)

val router_of_name : string -> (router, string) Stdlib.result
(** A name of {!routers}, or ["none"] for {!Full_connectivity}.  The
    error text names every valid name. *)

val select_routers : string list -> (string * router) list
(** [select_routers names] pairs each name with its {!router_of_name}
    router, in the given order: how a harness picks a column subset.
    @raise Invalid_argument on an unknown name. *)

val streamable : router -> bool
(** Routers the streaming flow ({!transpile_stream}) supports:
    [Sabre_router], [Nassc_router], and their noise-aware variants.
    [Astar_router], [Hybrid_router] and [Full_connectivity] need the whole
    circuit. *)

val noise_aware : router -> bool
(** [Sabre_ha] and [Nassc_ha]: the routers that route on the
    calibration's noise-aware distance matrix (eq. 3). *)

type result = {
  circuit : Qcircuit.Circuit.t;  (** final circuit in the hardware basis *)
  cx_total : int;
  depth : int;
  n_swaps : int;
  transpile_time : float;
      (** wall-clock seconds for the whole call (meaningful under parallel
          trials, where CPU time sums across domains) *)
  cpu_time : float;  (** process CPU seconds, summed over all domains *)
  initial_layout : int array option;
  final_layout : int array option;
  trial_stats : Trials.stat list;
      (** per-trial outcomes, in trial order; a single entry when
          [trials = 1] *)
}

val lower_to_2q : Qcircuit.Circuit.t -> Qcircuit.Circuit.t
(** Structural lowering to {one-qubit gates, CX, directives}. *)

type stage = string * (Qcircuit.Circuit.t -> Qcircuit.Circuit.t)
(** A named optimization stage.  The name identifies the stage's contract
    in the static-analysis layer ([Qlint.Contract]) and its [pass.<name>]
    observability span. *)

val pre_stages : stage list
(** The logical-circuit optimization bundle run before routing, in order. *)

val post_stages : stage list
(** The physical-circuit optimization bundle run after routing, in order,
    ending in the hardware basis. *)

val run_stages : stage list -> Qcircuit.Circuit.t -> Qcircuit.Circuit.t
(** Fold the stages over a circuit, each under its [pass.<name>] span. *)

val stage_names : router:router -> string list
(** The full pipeline as pass names — [lower_to_2q], the pre-routing
    stages, [route] (absent for {!Full_connectivity}), then the
    post-routing stages.  This is the sequence the static pass-contract
    validator checks. *)

val pre_optimize : Qcircuit.Circuit.t -> Qcircuit.Circuit.t
(** [run_stages pre_stages] under the [pipeline.pre_optimize] span. *)

val post_optimize : Qcircuit.Circuit.t -> Qcircuit.Circuit.t
(** [run_stages post_stages] under the [pipeline.post_optimize] span. *)

val transpile :
  ?params:Engine.params ->
  ?calibration:Topology.Calibration.t ->
  ?trials:int ->
  ?workers:int ->
  router:router ->
  Topology.Coupling.t ->
  Qcircuit.Circuit.t ->
  result
(** Full flow.  For [Full_connectivity] the coupling map is ignored and the
    circuit stays on its logical qubits.

    [trials] (default 1) runs that many independently seeded routing trials
    through {!Trials.run} — trial [k] uses seed [params.seed + k *
    Trials.seed_stride] — and keeps the best post-optimized circuit by
    [cx_total], ties broken by [depth] then trial index.  The default keeps
    the paper's single-shot behavior bit-for-bit, which is what the
    evaluation tables are produced with.  [workers] bounds the domain pool
    (default [Trials.default_workers ()]); results are identical for any
    worker count.  The distance matrix and the circuit's two DAG plans
    ({!Engine.plans}) are built once, before the trials, which share them
    read-only. *)

(** {2 Streaming transpilation}

    Million-gate circuits on mega-scale devices never fit the batch flow
    (it materializes the circuit, its DAG, and the dense distance matrix).
    {!transpile_stream} instead consumes a pull {!Qcircuit.Source},
    lowers each instruction on the fly, routes through a bounded
    sliding-window DAG ([Engine.route_stream]) with on-demand distance
    rows, finalizes SWAPs incrementally, and emits routed instructions to
    a sink in [chunk]-sized circuits — peak memory is
    O(window + chunk + device), independent of stream length. *)

type stream_result = {
  sr_gates_in : int;  (** gates consumed from the source (after lowering) *)
  sr_gates_out : int;  (** instructions emitted (barriers excluded) *)
  sr_cx_out : int;
  sr_depth_out : int;
      (** running circuit depth of the concatenated chunks (the exact
          [Circuit.depth] of the full output when [optimize] is off) *)
  sr_n_swaps : int;
  sr_chunks : int;
  sr_peak_resident : int;  (** window high-water mark, in gates *)
  sr_initial_layout : int array;
  sr_final_layout : int array;
}

val transpile_stream :
  ?params:Engine.params ->
  ?calibration:Topology.Calibration.t ->
  ?window:int ->
  ?chunk:int ->
  ?optimize:bool ->
  router:router ->
  sink:(Qcircuit.Circuit.t -> unit) ->
  Topology.Coupling.t ->
  Qcircuit.Source.t ->
  stream_result
(** Stream-route [source] onto [coupling], delivering routed instructions
    to [sink] as [chunk]-sized circuits (default 4096) on physical qubits.
    [window] (default 4096) bounds the resident DAG window; the layout
    search runs on the first [window] gates of the stream.  [optimize]
    (default false) runs the {!post_stages} bundle on each chunk before it
    reaches the sink (per-chunk, so cross-chunk cancellations are not
    found).  With [window >= total gates] and [optimize = false] the
    concatenated chunks are byte-identical to the corresponding batch
    router's routed circuit ([Sabre.route] + [decompose_swaps], or
    [Nassc.route]) at the same seed.
    @raise Invalid_argument when the router is not {!streamable}, or on
    invalid [window]/[chunk]. *)
