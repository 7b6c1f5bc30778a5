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

val block_unitary : block -> Mathkit.Mat.t
(** 4x4 unitary of a block, with [fst pair] as the most significant qubit. *)

val to_circuit : int -> segment list -> Qcircuit.Circuit.t
(** Reassemble segments into a circuit over [n] qubits. *)

val add_op_signature : Buffer.t -> zero:int -> Qgate.Gate.t -> int list -> unit
(** Append one op of a two-wire block to the block's exact signature: the
    gate's {!Qgate.Gate.add_signature}, one byte per operand (0 for wire
    [zero], 1 for the other wire) and a separator.  Two blocks with equal
    signatures hold the same gates, parameters bit for bit, on the same
    local wires, so anything computed from their local unitaries agrees. *)

val ops_cx_cost : Qcircuit.Circuit.instr list -> int
(** CNOTs spent by an instruction list (2q gates counted by their CX-basis
    cost: cx=1, swap=3, other 2q = their lowered cx count). *)

val block_cx_cost : block -> int
(** [ops_cx_cost b.ops]: CNOTs currently spent inside the block. *)

val gate_cx_cost : Qgate.Gate.t -> int
(** CX-basis cost of one gate (0 for one-qubit gates and directives). *)
