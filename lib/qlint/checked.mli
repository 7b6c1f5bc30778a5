(** Checked execution: verify pass contracts while the pipeline runs.

    The static validator ({!Contract.validate}) proves an ordering legal
    before any gate is touched; this module adds the opt-in dynamic side —
    after every stage, each property the contract dataflow says should hold
    is re-verified on the actual circuit, and violations come back as
    structured diagnostics naming the stage. *)

val validate_pipeline : router:Qroute.Pipeline.router -> Diagnostic.t list
(** Statically validate the canonical pipeline for [router] against the
    contract registry, with goal {!Contract.Hardware_basis} (plus
    {!Contract.Routed_for} for routing flows).  Empty on the shipped
    pipeline; a refactor that breaks Figure 5's ordering fails here. *)

val run_stages :
  ?coupling:Topology.Coupling.t ->
  ?check_semantics:bool ->
  ?initial:Contract.prop list ->
  Qroute.Pipeline.stage list ->
  Qcircuit.Circuit.t ->
  Qcircuit.Circuit.t * Diagnostic.t list
(** Run the stages, folding {!Contract.step} around each one: the
    stage's requires/conflicts/unknown-pass violations are reported before
    it runs (it still runs), and afterwards every property in the new
    symbolic state is verified on the actual circuit.
    {!Contract.Lowered_2q}, {!Contract.Hardware_basis} and
    {!Contract.Routed_for} go through {!Rules.check_prop} ([Routed_for] is
    skipped silently without [coupling]); {!Contract.Size_preserving} is
    CX-cost non-increase across the stage; and, when [check_semantics] is
    set, {!Contract.Semantics_preserved} is certified symbolically with
    {!Qverify.verify_pair} at any width, falling back to dense unitary
    comparison (at most 8 qubits) only when the symbolic checker returns
    Unknown.  Every diagnostic is located at its stage.
    [initial] (default [[Lowered_2q]]) must hold on the input and seeds the
    symbolic state. *)

val check_result :
  coupling:Topology.Coupling.t ->
  Qroute.Pipeline.result ->
  Diagnostic.t list
(** The full post-hoc rule set over a transpile result: structural rules,
    {!Contract.Lowered_2q} and {!Contract.Hardware_basis} on the final
    circuit, and — when the result carries layouts (i.e. it was routed) —
    layout validity and CheckMap conformance of every two-qubit gate under
    the device coupling map. *)

val verify_result :
  original:Qcircuit.Circuit.t ->
  Qroute.Pipeline.result ->
  Diagnostic.t list
(** [route.semantics]: certify that the transpiled circuit is equivalent
    to [original] under the result's initial/final layouts, using the
    symbolic checker ({!Qverify.verify_routed}) — no simulation, any
    width.  {!Qverify.Not_equivalent} is an error diagnostic (a verified
    transpiler bug, with the first divergent instruction when known);
    {!Qverify.Unknown} is a warning (certification budget exhausted, never
    a claim either way). *)

val catch_stuck : (unit -> 'a) -> ('a, Diagnostic.t) result
(** [catch_stuck f] runs [f] and turns {!Qroute.Engine.Routing_stuck} into
    the [route.stuck] error, located at the [route] stage, with the text of
    the engine's registered exception printer.  Every caller that routes
    reports a stuck router through it. *)

val check_width :
  router:Qroute.Pipeline.router -> Topology.Coupling.t -> int -> (unit, Diagnostic.t) result
(** [check_width ~router coupling n] refuses a circuit of [n] qubits that
    does not fit the device: the [route.too-wide] error, located at the
    [route] stage, naming both sizes.  [Full_connectivity] ignores the
    device, so it accepts any width.  Every front end that routes a
    circuit checks it first, so an oversized circuit is a diagnostic and
    never the engine's [Invalid_argument]. *)

val transpile :
  ?params:Qroute.Engine.params ->
  ?calibration:Topology.Calibration.t ->
  ?trials:int ->
  ?workers:int ->
  router:Qroute.Pipeline.router ->
  Topology.Coupling.t ->
  Qcircuit.Circuit.t ->
  (Qroute.Pipeline.result, Diagnostic.t list) result
(** Guarded transpile: statically validate the pipeline first and refuse to
    execute ([Error diags]) on an illegal ordering or a circuit wider than
    the device ({!check_width}); otherwise run
    {!Qroute.Pipeline.transpile} under {!catch_stuck} and verify the result
    with {!check_result}, returning [Error] when any check fails. *)
