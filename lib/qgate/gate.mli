(** The gate vocabulary of the compiler.

    Gates carry their parameters; the qubits they act on live in the circuit
    instruction ({!Qcircuit.Circuit.instr}).  The hardware basis used
    throughout the evaluation is IBM's {id, rz, sx, x, cx}, matching the
    paper (Section II-A). *)

type t =
  | Id
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | SX
  | SXdg
  | RX of float
  | RY of float
  | RZ of float
  | P of float  (** phase gate: diag(1, e^{i l}) *)
  | U of float * float * float  (** Qiskit u(theta, phi, lam) *)
  | CX
  | CY
  | CZ
  | CH
  | SWAP
  | CRX of float
  | CRY of float
  | CRZ of float
  | CP of float
  | RZZ of float
  | CCX
  | CCZ
  | CSWAP
  | MCX of int  (** [MCX k]: k controls, one target; k >= 3 *)
  | MCZ of int  (** [MCZ k]: k controls, phase flip on all-ones; k >= 3 *)
  | Unitary2 of Mathkit.Mat.t  (** opaque two-qubit block unitary (4x4) *)
  | Barrier of int
  | Measure

val arity : t -> int
(** Number of qubits the gate touches. *)

val name : t -> string
(** Lower-case mnemonic, OpenQASM style. *)

val pp : Format.formatter -> t -> unit

val tag : t -> int
(** The constructor's number, 0 to 33 in declaration order ([Id] is 0,
    [Measure] is 33).  Parameters are ignored: [tag (RZ a) = tag (RZ b)].
    Together with a gate's parameters it identifies the gate; the
    commutation cache and the cancellation groups key on it. *)

val add_signature : Buffer.t -> t -> unit
(** Append an exact binary signature of the gate: its {!tag} as one byte
    plus the bit patterns of every float parameter.  Injective (distinct
    gates produce distinct signatures, with no decimal rounding) and cheap;
    the memoization caches (Weyl cost, block resynthesis) build their keys
    from it. *)

val is_two_qubit : t -> bool
(** Arity exactly 2 and a unitary (not barrier/measure). *)

val is_one_qubit : t -> bool

val is_directive : t -> bool
(** Barrier or measure: opaque to optimizations. *)

val is_self_inverse : t -> bool
(** Gates [g] with [g . g = I] up to global phase (H, X, Y, Z, CX, CY, CZ,
    SWAP, CCX, ...); used by commutative cancellation. *)

val inverse : t -> t
(** Circuit-level inverse.  @raise Invalid_argument for [Barrier]/[Measure]. *)

val equal : t -> t -> bool
(** Structural equality; unitary payloads compared numerically. *)

val in_basis : t -> bool
(** Membership in the hardware basis {Id, RZ, SX, X, CX} (plus directives). *)
