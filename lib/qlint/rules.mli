(** Rule-based verifiers over circuits, DAGs and routed output.

    Each rule re-derives an invariant from first principles instead of
    trusting the constructors that are supposed to enforce it, and reports
    violations as {!Diagnostic.t} values carrying the offending instruction
    id (or wire).  Rule ids are stable strings ([qubit.bounds],
    [gate.arity], [route.check-map], ...) so tests can assert that a bad
    input trips {e exactly} its intended rule. *)

val structural : n:int -> Qcircuit.Circuit.instr list -> Diagnostic.t list
(** Instruction-level legality over a raw instruction list (usable before a
    {!Qcircuit.Circuit.t} can even be built): qubit-index bounds
    ([qubit.bounds]), gate arity ([gate.arity]) and repeated operands
    ([gate.repeated-qubit]). *)

val dag_consistency : Qcircuit.Circuit.t -> Diagnostic.t list
(** Wire consistency and acyclicity of the circuit's DAG view: every
    predecessor edge is mirrored by a successor edge on the same wire
    ([wire.consistency]) and all dependencies point backwards in the
    instruction order, i.e. the graph is acyclic ([dag.acyclic]). *)

val lowered_2q : Qcircuit.Circuit.t -> Diagnostic.t list
(** [basis.two-qubit]: every non-directive gate acts on at most 2 qubits
    (the contract {!Contract.Lowered_2q}). *)

val hardware_basis : Qcircuit.Circuit.t -> Diagnostic.t list
(** [basis.hardware]: every gate is in the hardware basis {rz, sx, x, cx}
    plus directives (the contract {!Contract.Hardware_basis}). *)

val dead_gates : Qcircuit.Circuit.t -> Diagnostic.t list
(** [gate.dead] (warning): gates that provably do nothing — parameterized
    gates whose angles make them the identity up to global phase (RZ(0),
    U(0,0,0), P(2pi), ...) and adjacent self-inverse pairs on the same
    operand list (X;X, CX a b;CX a b, H;H, ...) with no intervening gate
    on any shared wire.  Dead gates are legal, hence a warning: they cost
    depth (and fidelity on hardware) without effect, and routed output
    containing them usually indicates a missed peephole. *)

val check_map : Topology.Coupling.t -> Qcircuit.Circuit.t -> Diagnostic.t list
(** CheckMap ([route.check-map]): the circuit fits on the device and every
    two-qubit gate acts on a coupled physical pair. *)

val layout : Topology.Coupling.t -> int array -> Diagnostic.t list
(** [route.layout]: the layout is an injection of logical qubits into the
    device's physical qubits (in range, no duplicates). *)

val check_circuit :
  ?coupling:Topology.Coupling.t ->
  ?props:Contract.prop list ->
  Qcircuit.Circuit.t ->
  Diagnostic.t list
(** The full structural rule set ({!structural} + {!dag_consistency} +
    {!dead_gates}), plus
    the checker for each property in [props] ({!Contract.Routed_for} needs
    [coupling] and is skipped with a warning otherwise; the relational
    properties have no single-circuit checker and are ignored here). *)

val lint_qasm : ?path:string -> string -> (Qcircuit.Circuit.t, Diagnostic.t) result
(** Parse an OpenQASM 2 program; a parse failure becomes a [qasm.parse]
    diagnostic carrying the source line/column. *)

val lint_qasm_file : string -> (Qcircuit.Circuit.t, Diagnostic.t) result

val checks_run : unit -> int
(** Process-wide count of rule invocations (also exported as the Qobs
    counter [qlint.checks]). *)
