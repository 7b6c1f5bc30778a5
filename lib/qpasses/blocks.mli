(** Two-qubit block collection (Qiskit's Collect2qBlocks analog).

    A block is a maximal contiguous run of instructions confined to one pair
    of wires: two-qubit gates on exactly that pair plus interleaved
    one-qubit gates on either wire.  Blocks are what the re-synthesis pass
    (and NASSC's [C_2q] estimate) operate on. *)

type segment =
  | Single of Qcircuit.Circuit.instr
  | Block of block

and block = {
  pair : int * int;  (** wire pair (lo, hi) *)
  ops : Qcircuit.Circuit.instr list;  (** in circuit order *)
}

val collect : Qcircuit.Circuit.t -> segment list
(** Segments in a valid topological order of the source circuit. *)

val unitary : zero:int -> ('op -> Qgate.Gate.t) -> ('op -> int list) -> 'op list -> Mathkit.Mat.t
(** [unitary ~zero gate qubits ops]: the 4x4 unitary of ops confined to two
    wires, read through the accessors [gate] and [qubits], with wire [zero]
    as local qubit 0 (most significant) and any other wire as local qubit 1.
    The one block-unitary fold: the synthesis pass reads a block with
    [~zero:(fst pair)], NASSC's [C_2q] a trailing block with the candidate's
    first wire, [Synth2q] its local core circuits with [~zero:0].  The
    accessors let each caller pass the list it holds, unconverted. *)

val to_circuit : int -> segment list -> Qcircuit.Circuit.t
(** Reassemble segments into a circuit over [n] qubits. *)

val signature : zero:int -> ('op -> Qgate.Gate.t) -> ('op -> int list) -> 'op list -> string
(** The exact signature of ops confined to two wires, read as {!unitary}
    reads them: per op, the gate's {!Qgate.Gate.add_signature}, one byte
    per operand (0 for wire [zero], 1 for the other wire) and a separator.
    Two op lists with equal signatures hold the same gates, parameters bit
    for bit, on the same local wires, so anything computed from their
    local unitaries agrees.  NASSC's [C_2q] cache and the synthesis
    pass's memo are both keyed by it. *)

val ops_cx_cost : Qcircuit.Circuit.instr list -> int
(** CNOTs spent by an instruction list (2q gates counted by their CX-basis
    cost: cx=1, swap=3, other 2q = their lowered cx count). *)

val block_cx_cost : block -> int
(** [ops_cx_cost b.ops]: CNOTs currently spent inside the block. *)
