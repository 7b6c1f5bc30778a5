(** Dense statevector simulator.

    Qubit 0 is the MOST significant bit of the basis index, matching the
    convention of {!Qcircuit.Circuit.embed}.  Amplitudes are stored as
    separate re/im float arrays for cache behaviour. *)

type t

val create : int -> t
(** [create n] is |0...0> on [n] qubits.  [n] <= 24. *)

val n_qubits : t -> int

val apply_gate : t -> Qgate.Gate.t -> int list -> unit
(** In-place gate application.  One- and two-qubit gates take fast paths;
    wider gates use a generic gather/scatter kernel.
    @raise Invalid_argument for [Measure] (see {!sample}). *)

val apply_circuit : t -> Qcircuit.Circuit.t -> unit
(** Applies all unitary instructions; barriers and measures are skipped. *)

val amplitude : t -> int -> Mathkit.Cx.t
val probability : t -> int -> float
val norm : t -> float
(** Should stay 1 up to rounding; used as a test invariant. *)

val sample : t -> Mathkit.Rng.t -> int
(** Draw a basis index from the measurement distribution. *)

val most_likely : t -> int
(** Basis index with the highest probability. *)

val copy : t -> t
