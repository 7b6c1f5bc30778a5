(** Quantum circuit intermediate representation.

    A circuit is an ordered list of instructions over [n] qubits (indices
    [0..n-1]).  Classical bits are implicit: [Measure] on qubit [q] stores
    into classical bit [q]. *)

type instr = { gate : Qgate.Gate.t; qubits : int list }

type t = private { n : int; instrs : instr list }

val create : int -> instr list -> t
(** @raise Invalid_argument when an instruction is out of range, repeats a
    qubit, or has the wrong arity. *)

val empty : int -> t
val n_qubits : t -> int
val instrs : t -> instr list
val size : t -> int
(** Number of instructions, barriers excluded. *)

val append : t -> Qgate.Gate.t -> int list -> t
val concat : t -> t -> t
(** @raise Invalid_argument on qubit-count mismatch. *)

val inverse : t -> t
(** Reverse gate order, invert each gate.  Measures are dropped. *)

val remap : t -> int array -> t
(** [remap c perm] relabels qubit [q] as [perm.(q)] (size preserved). *)

val lift : t -> n:int -> map:int array -> t
(** [lift c ~n ~map] embeds [c] into an [n]-qubit circuit, relabelling
    qubit [q] as [map.(q)].  [map] must be an injection of
    [0..n_qubits c - 1] into [0..n-1] — exactly the shape of a routing
    layout array (logical -> physical).  Wires outside the image of [map]
    carry no instructions.  @raise Invalid_argument on a non-injective or
    out-of-range map. *)

val drop_measures : t -> t

val gate_count : t -> string -> int
(** Count instructions whose {!Qgate.Gate.name} matches. *)

val cx_count : t -> int
val two_qubit_count : t -> int
val depth : t -> int
(** Circuit depth over all non-barrier instructions (Qiskit convention). *)

val unitary : t -> Mathkit.Mat.t
(** Dense unitary of the circuit (measures and barriers ignored).  Only for
    small circuits: raises [Invalid_argument] above 12 qubits. *)

val embed : n:int -> Mathkit.Mat.t -> int list -> Mathkit.Mat.t
(** [embed ~n g qs] lifts gate matrix [g] (on qubits [qs], first qubit =
    most significant) to the full [2^n] space, qubit 0 = most significant. *)

val equal : t -> t -> bool
(** Structural equality of instruction lists: angles compared as floats
    (so [RZ 0.0] equals [RZ (-0.0)]), unitary payloads numerically. *)

val bit_equal : t -> t -> bool
(** Bit-exact equality: same width, and every instruction has the same
    operands and the same {!Qgate.Gate.add_signature}, so every float
    parameter and every [Unitary2] entry must agree bit for bit.  The
    comparison behind every "bit-identical" claim about circuits. *)

val pp : Format.formatter -> t -> unit

module Builder : sig
  type circuit := t
  type t

  val create : int -> t
  val add : t -> Qgate.Gate.t -> int list -> unit
  val add_instr : t -> instr -> unit
  val circuit : t -> circuit
  val n_qubits : t -> int
end
