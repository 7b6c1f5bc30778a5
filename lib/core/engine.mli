(** Shared SABRE-style routing engine (Section IV-B of the paper).

    Both routers walk the circuit DAG layer by layer: executable gates are
    emitted onto their mapped physical qubits; when the front layer is stuck,
    every SWAP touching a front-gate qubit is scored with the lookahead cost
    function (paper eq. 2) and the cheapest one is applied.  The two routers
    differ only in the [bonus] hook: SABRE's is constantly zero, NASSC's
    estimates the CNOT savings that downstream optimizations will realize
    (C_2q, C_commute1, C_commute2) and tags the chosen SWAP's decomposition.

    A decay penalty on recently swapped qubits (as in Qiskit's SabreSwap)
    prevents ping-ponging, and a stall valve falls back to shortest-path
    routing if no gate retires for too long. *)

type params = {
  ext_size : int;  (** |E|, the paper uses 20 *)
  ext_weight : float;  (** W, the paper uses 0.5 *)
  stall_limit : int;  (** swaps without progress before the escape valve *)
  seed : int;
  iterations : int;  (** forward/backward layout-refinement rounds *)
}
(** The decay penalty adds 0.001 per SWAP on a qubit, and the optimization
    bonus enters H_basic at full weight (the paper's eq. 1 literally). *)

val default_params : params

exception Routing_stuck of { front : (int * int) list; l2p : int array }
(** The search found a front layer of two-qubit gates with no candidate
    SWAP at all (e.g. the mapped qubits sit on isolated device vertices).
    [front] holds the stuck gates as physical pairs under [l2p], the
    logical-to-physical mapping at the point of failure — enough context
    to report the failure as a structured diagnostic instead of a crash.
    A printer is registered, so [Printexc.to_string] renders it fully. *)

type tag = Not_swap | Swap_plain | Swap_orient of int * int
(** Decoration on emitted SWAPs: [Swap_orient (c, t)] requests the
    decomposition whose first and last CNOTs have control [c], target [t]. *)

type out_op = {
  mutable gate : Qgate.Gate.t;
  op_qubits : int list;
  mutable tag : tag;
}

type mapping = { l2p : int array; p2l : int array }

val mapping_of_layout : n_phys:int -> int array -> mapping
(** [mapping_of_layout ~n_phys l2p] builds the two-way mapping; physical
    qubits not in the image hold no logical qubit ([p2l] = -1). *)

type stream
(** The emitted-op stream: the routed ops newest-first plus a per-physical-
    qubit index of the same ops (each with its global emission index).
    Bonus hooks walk a bounded window of recent ops on two wires; the
    per-wire tails let them visit only ops touching those wires while the
    emission indices enforce the global window bound. *)

val stream_create : ?sink:(out_op -> unit) -> ?keep:int -> n_phys:int -> unit -> stream
(** Without [sink] (the classic mode) every emitted op stays resident.
    With [sink], whenever more than [2 * keep] ops are retained the stream
    hands all but the newest [keep] to the sink oldest-first and drops them
    — O(keep) resident ops however long the route.  [keep] (default 64)
    must exceed the largest bonus scan window ([scan_limit + 1] for the
    NASSC hooks) so flushed ops are never retro-tagged; {!stream_drain}
    flushes the remainder at end of route. *)

val stream_push : stream -> out_op -> unit
(** Append an op (it becomes the newest on its wires).  [route_once] emits
    through this; exposed so tests can build streams directly. *)

val stream_drain : stream -> unit
(** Deliver every still-retained op to the sink (no-op without one). *)

val stream_rev : stream -> out_op list
(** All emitted ops, newest first (the classic [out_rev]); under a sink,
    only the ops not yet flushed. *)

val stream_total : stream -> int
(** Number of ops emitted so far; the newest op has index [total - 1]. *)

val stream_wire : stream -> int -> (int * out_op) list
(** Ops touching a physical qubit, newest first, with emission indices. *)

type bonus_fn =
  stream:stream -> mapping:mapping -> int -> int -> float * (out_op -> unit)
(** [bonus ~stream ~mapping p1 p2] scores the candidate SWAP on physical
    qubits [(p1, p2)]: returns the estimated CNOT reduction and a callback
    run on the emitted SWAP op if this candidate wins (used for tagging). *)

val zero_bonus : bonus_fn

val no_action : out_op -> unit
(** Shared no-op winner callback (allocation-free). *)

val no_bonus : float * (out_op -> unit)
(** [(0.0, no_action)], the shared "no savings" bonus result. *)

type result = {
  routed : out_op list;  (** in circuit order *)
  initial_layout : int array;
  final_layout : int array;
  n_swaps : int;
}

type stream_stats = {
  st_initial_layout : int array;
  st_final_layout : int array;
  st_n_swaps : int;
  st_gates_in : int;  (** gates consumed from the source *)
  st_peak_resident : int;  (** window high-water mark (the O(window) claim) *)
}
(** What {!route_stream} returns: the routed ops themselves went to the
    sink, so only layouts and counts remain. *)

val route_rng : params -> Mathkit.Rng.t
(** The canonical routing stream for a seed: [Rng.create params.seed],
    exactly the stream [route_once] historically created internally.
    [route_once ~rng:(route_rng params)] reproduces pre-refactor output
    bit-for-bit. *)

val layout_rng : params -> Mathkit.Rng.t
(** The canonical layout-permutation stream: [Rng.create (params.seed +
    7919)], as [find_layout] historically used. *)

module Scoring : sig
  (** The incremental candidate scorer (exposed for equivalence tests).

      One [t] serves every step of a route, and in {!find_layout} every
      pass.  A step loads the front and lookahead-window pairs (physical
      qubits) with {!clear}, {!add_front} and {!add_ext}, or, when only the
      previous step's SWAP has changed the mapping since, renames them with
      {!swap}; {!prepare} ends the step's loading.  {!front_after} /
      {!ext_after} then score a candidate SWAP [(p1, p2)] by adjusting only
      the pairs touching [p1] or [p2]: O(deg) instead of O(|F| + |E|).
      Pairs, their distances and the per-qubit index live in flat arrays
      that grow on demand and are reused, so a step allocates nothing here.

      Order-of-reads invariants.  Each sum adds its floats in a fixed order,
      and the routing goldens were recorded with it: under a non-integral
      metric (eq. 3) another order can round differently.
      - A base sum adds its pairs' distances in pair order, starting from
        [0.0], as a full rescan does: {!add_front} and {!add_ext} add as they
        append, and {!swap} sums the renamed pairs again in the same order.
      - A delta adds [d(moved) -. d(pair)] over the pairs touching [p1],
        newest pair first, then over those touching [p2] but not [p1],
        newest first, starting from [0.0]; [front_after] is [base +. delta].
      - {!swap} leaves the pairs, their order and each qubit's newest-first
        index list exactly as a fresh {!clear} and the same additions under
        the exchanged mapping would, so every later sum is the same float.
      - Dense and on-demand ([Distmat.hops_lazy]) matrices share these
        loops; the representation is fixed at {!create} and read once per
        call.  Both give the same values, so the sums agree bit for bit.
      For integral (hop) metrics the results equal a full rescan bit for
      bit; for non-integral ones they agree within accumulated ulps (the
      engine's 1e-12 tie tolerance absorbs this).  An infinite base sum
      (disconnected pairs) makes scoring fall back to the full rescan. *)

  type t
  (** Reusable per-route workspace: the step's pairs, their index and the
      prepared sums.  Not safe to share between concurrent routes. *)

  val create : dist:Topology.Distmat.t -> capacity:int -> t
  (** A scorer over [dist]'s device, with room for [capacity] pairs in each
      of the two sets before the first growth. *)

  val clear : t -> unit
  (** Empty both pair sets. *)

  val add_front : t -> int -> int -> unit
  (** [add_front t a b] appends the physical pair [(a, b)] to the front,
      indexes it and adds its distance to the front's base sum. *)

  val add_ext : t -> int -> int -> unit
  (** Appends a pair to the extended (lookahead) set. *)

  val swap : t -> int -> int -> unit
  (** [swap t p1 p2] exchanges [p1] and [p2] in every pair of both sets:
      the sets a fresh {!clear} and the same additions would give once the
      mapping has exchanged the two qubits, at the cost of the pairs
      touching them plus one pass of distance reads. *)

  val prepare : t -> unit
  (** Ends a step's loading: decides between delta scoring and the full
      rescan, and resets {!pair_evals}. *)

  val base_front : t -> float
  (** Sum of [D.(a).(b)] over the front pairs under the current mapping. *)

  val base_ext : t -> float
  val front_after : t -> int -> int -> float
  (** [front_after t p1 p2]: the front sum if [(p1, p2)] were swapped. *)

  val ext_after : t -> int -> int -> float

  val pair_evals : t -> int
  (** Pair-distance evaluations performed since [prepare] — what the
      [engine.score_cache_hits] counter is computed from. *)
end

module Candidates : sig
  (** Candidate SWAP enumeration without a hash table per step.

      A routing step's candidates are the coupling edges touching a set of
      physical qubits.  Their order is the tie-break order [Rng.pick] sees,
      and it is the order the routers have always used: distinct keys
      [(min p nb, max p nb)], added per qubit in [Coupling.neighbors] order,
      listed as [Hashtbl.fold (fun k () acc -> k :: acc)] lists an unseeded
      [Hashtbl.create initial_buckets] filled by [replace].  That is: by
      bucket [Hashtbl.hash key land (nb - 1)], highest first, and within a
      bucket in first-insertion order, where [nb] is the table's bucket
      count after the insertions (the initial count, doubled while the key
      count exceeds [2 * nb]).  [Hashtbl.hash] is unseeded, so the order
      does not change under [OCAMLRUNPARAM=R].  The engine uses 32 initial
      buckets, the A* router 16. *)

  type t
  (** Per-device tables (each qubit's edge ids, each edge's key hash) plus
      reusable per-step scratch; not safe to share between concurrent
      routes. *)

  val create : initial_buckets:int -> Topology.Coupling.t -> t

  val capacity : t -> int
  (** The most candidates a step can have: the device's edge count. *)

  val clear : t -> unit
  (** Start a new candidate set. *)

  val add : t -> int -> unit
  (** Add every coupling edge touching a physical qubit (edges already in
      the set keep their first insertion). *)

  val order : t -> int
  (** Put the set in the order above and return its size [n]. *)

  val p1 : t -> int -> int
  (** [p1 t i], for [i < n]: the smaller qubit of the [i]-th candidate. *)

  val p2 : t -> int -> int
end

type plans = {
  forward : Qcircuit.Streamdag.Plan.t;  (** the circuit's DAG *)
  backward : Qcircuit.Streamdag.Plan.t;
      (** the DAG of the circuit run backwards without its measurements *)
}
(** The two DAGs the routing of one circuit walks: built once, shared
    read-only by every layout pass, the final route and every trial, on
    any domain (DESIGN.md §26). *)

val plans : Qcircuit.Circuit.t -> plans
(** Build both plans.  @raise Invalid_argument as {!route_once}. *)

val route_once :
  params ->
  Topology.Coupling.t ->
  rng:Mathkit.Rng.t ->
  dist:Topology.Distmat.t ->
  bonus:bonus_fn ->
  ?window:(front:(int * int) list -> (int * int) list option) ->
  ?dag:Qcircuit.Dag.t ->
  ?plan:Qcircuit.Streamdag.Plan.t ->
  Qcircuit.Circuit.t ->
  int array ->
  result
(** One routing pass from a given initial layout (logical -> physical).
    All tie-breaking randomness is drawn from [rng], which the caller owns;
    pass {!route_rng} for the canonical seeded stream, or an independent
    per-trial stream for multi-trial search.  The input circuit must contain
    only <=2-qubit gates and directives.  The pass walks [plan], which
    must be the circuit's forward plan ([(plans circuit).forward]); without
    it the pass builds one.  [dag] is accepted and ignored.

    [window], when given, is consulted on every stuck front layer with the
    front's two-qubit gates as physical pairs under the current mapping
    (pairwise disjoint by construction).  Returning [Some swaps] emits and
    applies the whole sequence — bypassing the heuristic for that front and
    resetting the stall counter — which is how the hybrid router injects
    exact window solutions; [None] (or [Some []]) falls through to the
    heuristic scoring path unchanged.  A returned sequence must consist of
    coupling edges and is trusted to make the front executable.  Without
    [window] the engine behaves byte-identically to previous releases.
    @raise Invalid_argument otherwise, or when the layout is unusable.
    @raise Routing_stuck when a front gate has no swap candidates. *)

val route_stream :
  params ->
  Topology.Coupling.t ->
  rng:Mathkit.Rng.t ->
  dist:Topology.Distmat.t ->
  bonus:bonus_fn ->
  window:int ->
  ?keep:int ->
  sink:(out_op -> unit) ->
  Qcircuit.Source.t ->
  int array ->
  stream_stats
(** Streaming counterpart of {!route_once}: consume gates from a pull
    [source] through a bounded [window]-gate sliding DAG ({!
    Qcircuit.Streamdag}), emitting routed ops to [sink] as soon as the
    emitted-op holdback allows (see {!stream_create}; [keep] defaults to
    64).  Resident memory is O(window + keep + n_phys) regardless of
    stream length.  With [window >= total gates] the ops delivered to
    [sink], the layouts and the SWAP count are byte-identical to
    [route_once] on the materialized circuit — smaller windows may route
    differently (the lookahead horizon is clipped to admitted gates) but
    remain valid.  [dist] may be an on-demand matrix
    ([Distmat.hops_lazy]), which is what avoids the dense n^2 table on
    mega-scale devices.
    @raise Invalid_argument as [route_once], checked per admission.
    @raise Routing_stuck when a front gate has no swap candidates. *)

val find_layout :
  params ->
  Topology.Coupling.t ->
  rng:Mathkit.Rng.t ->
  dist:Topology.Distmat.t ->
  bonus:bonus_fn ->
  ?dag:Qcircuit.Dag.t ->
  ?plans:plans ->
  Qcircuit.Circuit.t ->
  int array
(** Random initial layout refined by reverse-traversal rounds (the paper
    reuses SABRE's bidirectional scheme).  [rng] drives the initial
    permutation; each refinement pass replays the canonical {!route_rng}
    stream so a fixed seed reproduces historical layouts exactly.

    The passes are layout-only: each one makes the same SWAP decisions as
    {!route_once} with [zero_bonus] (and opens the same
    [engine.route_once] span), but emits no ops and builds no {!result},
    keeping only the final layout.  The forward passes walk
    [plans.forward] and the backward ones [plans.backward], one walk
    restarted per pass; [plans] must be {!plans} of [circuit], and without
    it the search builds them.  A layout pass has no output stream for a
    bonus to read, so [bonus] must be {!zero_bonus}.  [dag] is accepted
    and ignored, as in {!route_once}.
    @raise Invalid_argument if [bonus] is not physically {!zero_bonus}, or
    as {!route_once}. *)

val to_circuit : n_phys:int -> out_op list -> Qcircuit.Circuit.t
(** Materialize routed ops (SWAP tags ignored: swaps stay SWAP gates). *)
