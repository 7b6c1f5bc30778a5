(** Two-qubit unitary synthesis into {1q gates + CX} with the minimal CNOT
    count (Qiskit's [TwoQubitBasisDecomposer] analog).

    Emitted ops act on local qubits 0 (most significant) and 1; the caller
    maps them onto circuit qubits.  Output is correct up to global phase;
    [Blocks.unitary ~zero:0 fst snd ops] is the unitary of an emitted list.

    Synthesis runs in two steps, so a caller can decide from the first
    whether it wants the second.  {!kak} is one [Weyl.decompose] of the
    target and its class: the minimal CNOT count, which is exactly the
    number of CX gates any replacement built from it spends.  {!of_kak}
    builds that replacement: the class's core circuit ({!core_length} ops),
    a second decomposition of the core (precomputed for class 1), the four
    products that carry the target's local factors onto it, and their
    Euler dressing, at most one [U] gate per wire on each side of the
    core.  {!synthesize} is both steps. *)

val kak : Mathkit.Mat.t -> Weyl.t * int
(** [kak u] is [u]'s KAK decomposition and its class, the minimal CNOT
    count {!Weyl.cnot_class} reads off its chamber position.  Adds one to [synth2q.kak_decompositions] (and,
    through [Weyl.decompose], to [weyl.decompositions], which also counts
    the core decompositions of {!of_kak} and every [Weyl.cnot_cost]).
    @raise Invalid_argument if the input is not a 4x4 unitary. *)

val core_length : int -> int
(** Ops in the core circuit of a class: 0, 1, 4 and 6 for classes 0-3.
    {!of_kak} returns at least this many, exactly the class's count of
    them CX.  @raise Invalid_argument outside 0-3. *)

val of_kak : Weyl.t * int -> (Qgate.Gate.t * int list) list
(** The replacement for a decomposition {!kak} returned: the core
    circuit dressed with [U(theta,phi,lam)] gates (identities dropped),
    their angles from {!Mathkit.Euler.u_angles_of_unitary}: the output is
    correct up to global phase, so no dressing's phase is computed.
    @raise Invalid_argument if the core's own decomposition does not land
    on the target's coordinates. *)

val synthesize : Mathkit.Mat.t -> (Qgate.Gate.t * int list) list
(** [of_kak (kak u)]: synthesize a 4x4 unitary with 0-3 CNOTs according
    to its Weyl chamber position.
    @raise Invalid_argument if the input is not a 4x4 unitary. *)
