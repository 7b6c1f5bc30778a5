(** Two-qubit unitary synthesis into {1q gates + CX} with the minimal CNOT
    count (Qiskit's [TwoQubitBasisDecomposer] analog).

    Emitted ops act on local qubits 0 (most significant) and 1; the caller
    maps them onto circuit qubits.  Output is correct up to global phase. *)

val synthesize : Mathkit.Mat.t -> (Qgate.Gate.t * int list) list
(** Synthesize a 4x4 unitary with 0-3 CNOTs according to its Weyl chamber
    position.  One-qubit factors are emitted as [U(theta,phi,lam)] gates
    (identities dropped).
    @raise Invalid_argument if the input is not a 4x4 unitary. *)

val ops_unitary : int -> (Qgate.Gate.t * int list) list -> Mathkit.Mat.t
(** Dense unitary of an op list over [n] qubits; exposed for reuse in tests
    and in block resynthesis. *)
