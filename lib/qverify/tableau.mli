(** Inverse-frame stabilizer tableau.

    The checker maintains the invariant [prefix = C . R]: the circuit
    prefix consumed so far equals the accumulated Clifford [C] followed
    (to the right, i.e. applied first) by a product of Pauli rotations
    [R].  This module holds [C], represented by the images of the wire
    generators under inverse conjugation:

    {v  row_x w = C^dag X_w C        row_z w = C^dag Z_w C  v}

    Appending a Clifford gate [g] (so [C <- g C]) rewrites only the rows
    of [g]'s wires: [row'(P) = row(g^dag P g)], with the local
    conjugation identities hard-coded per gate, then evaluated as a
    product of existing rows — O(n) per gate.  Pushing a rotation about a
    local axis [Q] through [C] turns it into a rotation about
    [image Q = C^dag Q C]; when the angle is a multiple of pi/2 the
    rotation is itself Clifford and is folded into [C] instead
    ({!fold_local} from the left at push time, {!fold_frame} from the
    right when a deferred merge turns Clifford). *)

type t

(** The Clifford vocabulary.  [SY = exp(-i pi/4 Y)] and its adjoint are
    internal gates needed to fold RY at Clifford angles; the rest mirror
    {!Qgate.Gate} constructors. *)
type gate =
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | SX
  | SXdg
  | SY
  | SYdg
  | CX
  | CY
  | CZ
  | SWAP

val create : int -> t
(** Identity frame on [n] wires. *)

val n_wires : t -> int

val row_x : t -> int -> Pauli.t
val row_z : t -> int -> Pauli.t

val apply : t -> gate -> int list -> unit
(** [C <- g C].  @raise Invalid_argument on an arity mismatch. *)

val image_local : t -> (int * int) list -> Pauli.t
(** Image [C^dag Q C] of the phase-free local Pauli [Q] given as
    (wire, code) pairs — the push of a rotation axis through [C]. *)

val image : t -> Pauli.t -> Pauli.t
(** Image of an arbitrary signed Pauli string. *)

val fold_local : t -> quarters:int -> (int * int) list -> unit
(** [fold_local t ~quarters q]: append the Clifford rotation
    [exp(-i (quarters * pi/2) / 2 * Q)] from the left ([C <- E C]),
    [quarters] in [{1, 2, 3}].  Only rows of [Q]'s wires change. *)

val fold_frame : t -> quarters:int -> Pauli.t -> unit
(** [fold_frame t ~quarters s]: absorb the Clifford rotation
    [exp(-i (quarters * pi/2) / 2 * S)] from the right ([C <- C E]) —
    used when a deferred rotation merge lands on a Clifford angle.  [s]
    is already a frame-side string (an element of the row algebra), so
    every row anticommuting with it is rewritten: O(n^2). *)

val map_rows : t -> (Pauli.t -> Pauli.t) -> unit
(** Rewrite every row through [f] — the frame-side absorption of a
    residual Clifford whose conjugation action is known row-by-row
    ([C <- C V] with [f row = V^dag row V]). *)

val permutation : int -> (int -> Pauli.t * Pauli.t) -> (int array, int) result
(** [permutation n row] tests whether the frame whose wire [w < n] has the
    row pair [row w] (its X and Z rows) is exactly a wire permutation up to
    global phase: [Ok tau] when every pair is a signless single-qubit
    [(X_{tau w}, Z_{tau w})] and [tau] is a bijection (then [C = P_sigma]
    with [tau = sigma^{-1}]).  Otherwise [Error w], [w] the first wire
    whose pair is not such a pair, or [0] when only the bijection fails.
    [row] is called in wire order, and not past the first failing wire;
    an exception it raises passes through. *)
