(** Monte-Carlo Pauli noise model driven by device calibration data.

    Gate errors are modeled as depolarizing channels (a uniformly random
    Pauli on the gate's qubits with the calibrated error probability), and
    measurement as independent bit flips with the calibrated readout error -
    the standard stochastic approximation of the noise models Qiskit builds
    from IBM backend properties (paper Section VI-D). *)

type t

val of_calibration : Topology.Calibration.t -> t

val trivial : n:int -> t
(** Noise-free model (every error rate zero); useful in tests. *)

val remap : t -> (int -> int) -> t
(** [remap model f] views the model through relabeled wires: wire [q] of
    the new model uses the error rates of wire [f q].  Needed after
    {!Success.compact}, which renames physical wires. *)

val gate_error : t -> Qgate.Gate.t -> int list -> float
(** Error probability charged to one instruction. *)

val readout_error : t -> int -> float

val esp : t -> Qcircuit.Circuit.t -> measured:int list -> float
(** Estimated success probability: product over instructions of
    [1 - error], times [1 - readout] over measured wires.  The standard
    analytic fidelity proxy. *)

val sample :
  t -> Qcircuit.Circuit.t -> shots:int -> Mathkit.Rng.t -> int array
(** [sample model circuit ~shots rng] draws [shots] noisy measurement
    outcomes (full basis indices, before readout error is applied to
    non-measured wires is irrelevant - readout flips are applied to every
    wire; project as needed).  Error-free shots reuse one noiseless
    simulation; shots with injected Paulis re-simulate, up to 400
    distinct re-simulations, after which error shots cycle through the
    cached noisy results. *)
