(** Exact unitaries for every gate in the vocabulary.

    Convention: for a gate applied to qubits [q0; q1; ...; qk] (controls
    before targets), the matrix acts on the basis |q0 q1 ... qk> with q0 as
    the MOST significant bit.  All consumers (simulator, block collection,
    KAK synthesis) share this convention. *)

val of_gate : Gate.t -> Mathkit.Mat.t
(** Unitary matrix of a gate.
    @raise Invalid_argument for [Barrier] and [Measure]. *)

val cnot_rev : Mathkit.Mat.t
(** CX with control on the LESS significant qubit (qubit order reversed);
    convenient for tests and the SWAP-orientation logic. *)

val swap_mat : Mathkit.Mat.t
(** The 4x4 SWAP matrix (cached). *)
