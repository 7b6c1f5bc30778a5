(** Symbolic equivalence certification for routed circuits.

    Certifies [routed o initial_layout = final_layout o original] (as
    maps from logical states to physical states, up to one global phase)
    without simulation, at device scale: the cost is polynomial in wire
    count and gate count, never exponential, so 27-qubit (and larger)
    routed circuits are checked in milliseconds where statevector
    comparison ({!Qsim.Equiv}) stops at a handful of qubits.

    Method: the composite [W = routed . embed(original^{-1})] is swept
    once, maintaining [W_prefix = C . R] with [C] a Clifford held as an
    inverse-frame {!Tableau} and [R] a list of pending Pauli-axis
    rotations (the phase-folding canonical form).  Clifford gates update
    the tableau in O(n); non-Clifford rotations are pushed through [C]
    and merged against pending rotations modulo commutation, with
    Clifford-angle merges folded back into [C].  Rotations that survive
    the sweep are partitioned into independent clusters and resolved
    exactly on a dense representation of their (small) symplectic span.
    [W] is equivalent iff the residue vanishes and the final frame is the
    wire permutation the two layouts prescribe.

    The verdict is three-valued and never claims a false positive:
    {!Equivalent} and {!Not_equivalent} are certified (the latter in the
    strict sense that [W] provably is not a wire permutation up to global
    phase — every pipeline pass promises exact unitary preservation, so
    any such divergence is a transpiler bug); everything the budgets
    cannot decide is {!Unknown}.  All float comparisons (angle snapping,
    dense residue checks) use a tolerance of 1e-7, mirroring the tolerance
    already inherent in the float-parameterized gate set. *)

type location = {
  segment : string;  (** ["original"] or ["routed"] *)
  index : int;  (** instruction index within that segment *)
  gate : string;  (** {!Qgate.Gate.name} of the instruction *)
}

type certificate = {
  n_wires : int;  (** physical wires of the composite *)
  gates : int;  (** non-directive instructions swept *)
  cliffords : int;  (** tableau-only updates *)
  rotations : int;  (** non-Clifford rotations pushed *)
  merges : int;  (** pending-list merges *)
  folds : int;  (** Clifford-angle folds into the frame *)
  residues : int;  (** rotations left for dense cluster resolution *)
  clusters : int;  (** dense clusters resolved *)
  permutation : int array;
      (** [tau]: final-frame wire map, [C^dag X_w C = X_{tau w}] *)
}

type verdict =
  | Equivalent of certificate
  | Not_equivalent of { reason : string; location : location option }
  | Unknown of { reason : string }

val verdict_name : verdict -> string
(** ["equivalent"] | ["not_equivalent"] | ["unknown"]. *)

val to_json : verdict -> string
(** One-line JSON object ([{"kind":"verdict","verdict":...}] plus the
    certificate counters or the reason/location), JSONL-ready. *)

val verify_routed :
  original:Qcircuit.Circuit.t ->
  routed:Qcircuit.Circuit.t ->
  ?initial_layout:int array ->
  ?final_layout:int array ->
  unit ->
  verdict
(** Certify a routing result.  [initial_layout] / [final_layout] are
    logical->physical injections exactly as {!Qroute.Pipeline.result}
    carries them (default: identity, requiring equal wire counts).

    A commutation scan of 512 pending rotations bounds each merge of a
    pushed rotation, and a residue cluster may span at most 6 dense qubits
    ([2^6]-dimensional matrices).  Exceeding either can only produce
    {!Unknown}, never a wrong verdict.

    Emits [qverify.*] Qobs counters when a collector is installed.
    @raise Invalid_argument on malformed layouts. *)

val verify_pair :
  Qcircuit.Circuit.t ->
  Qcircuit.Circuit.t ->
  verdict
(** [verify_pair a b]: equivalence of two same-width circuits up to
    global phase (identity layouts) — the form optimization passes must
    preserve, usable as {!Contract.Semantics_preserved} evidence at any
    width. *)

(**/**)

module Pauli = Pauli
module Tableau = Tableau
