(** Dense complex matrices.

    Sizes here are tiny (2x2 and 4x4 dominate: gate unitaries and two-qubit
    blocks), so the kernels are straightforward O(n^3) loops.  Statevectors
    live in {!Qsim}, not here.

    {b Storage.} One row-major [Float.Array.t] of interleaved
    [(re, im)] pairs: entry [(i, j)] of an [r x c] matrix is at float
    indices [2(ic + j)] and [2(ic + j) + 1].  The kernels read and write
    unboxed floats and allocate only their result.

    {b Bit identity.} Every kernel performs exactly the float operations of
    the [Stdlib.Complex] code it replaced, in the same order: {!mul}
    accumulates each entry as [cur + (a * b)] and skips left entries that
    are exactly [+-0 + +-0i]; moduli are [Float.hypot]; {!det} keeps its
    pivot test and divides with [Complex.div].  Results are therefore
    bit-for-bit those of a [Complex.t array] matrix.

    {b Cost of entries.} {!get} builds a fresh [Complex.t] on every call and
    {!init} takes one per entry from its callback.  Hot code should use the
    whole-matrix kernels and the builders {!of_real}, {!diag_phases} and
    {!gather} instead of reading or writing entry by entry. *)

type t

val rows : t -> int
val cols : t -> int

val make : int -> int -> Cx.t -> t
val init : int -> int -> (int -> int -> Cx.t) -> t
val identity : int -> t
val zeros : int -> int -> t

val of_rows : Cx.t list list -> t
(** Build from row lists.  @raise Invalid_argument on ragged input. *)

val of_real_rows : float list list -> t

val of_real : int -> int -> Float.Array.t -> t
(** [of_real r c p] is the real [r x c] matrix whose entry [(i, j)] is
    [p.(i * c + j)] (row-major, the storage of {!Eig}); every imaginary
    part is [+0]. *)

val diag_phases : float array -> t
(** [diag_phases t] is the diagonal matrix with entries [e^{i t_k}]
    ([cos t_k + i sin t_k], as {!Cx.exp_i}); off-diagonal entries are [0]. *)

val gather : int -> int -> (int -> int -> int) -> t -> t
(** [gather r c f src] is the [r x c] matrix whose entry [(i, j)] is the
    entry of [src] at row-major position [f i j] (row [f i j / cols src],
    column [f i j mod cols src]), or [0] when [f i j < 0]. *)

val storage : t -> Float.Array.t
(** The matrix's own storage (see {b Storage} above), not a copy: writing
    to it writes the matrix.  For a kernel over raw floats that must not
    build a [t] per step, such as [Weyl.decompose], which reads its input
    and fills the [zeros 2 2] factors it returns through it. *)

val argmax_abs : t -> int
(** Row-major position of the first entry of largest modulus. *)

val get : t -> int -> int -> Cx.t
(** Allocates a fresh [Cx.t]; see the note on the cost of entries above. *)

val set : t -> int -> int -> Cx.t -> unit
val copy : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : Cx.t -> t -> t
val kron : t -> t -> t
val transpose : t -> t
val conj : t -> t
val adjoint : t -> t
(** Conjugate transpose. *)

val trace : t -> Cx.t
val det : t -> Cx.t
(** Determinant by LU with partial pivoting. *)

val apply_vec : t -> Cx.t array -> Cx.t array
(** Matrix-vector product. *)

val frobenius_distance : t -> t -> float

val approx_equal : ?eps:float -> t -> t -> bool
(** Entry-wise closeness. *)

val equal_up_to_phase : ?eps:float -> t -> t -> bool
(** [equal_up_to_phase a b] holds when [a = e^{i phi} b] for some global
    phase [phi], that is when [phase_to ?eps a b] finds one.  This is the
    right notion of equality for circuit unitaries. *)

val is_unitary : ?eps:float -> t -> bool

val phase_to : ?eps:float -> t -> t -> Cx.t option
(** [phase_to a b] returns [Some z], [z] unit modulus, when [a = z b].
    [z] is the ratio of the entries at {!argmax_abs}[ b]; it is accepted
    when [| |z| - 1 | <= eps] and [frobenius_distance a (scale z b) <=
    eps * rows * cols].  Default [eps] = 1e-6. *)

val pp : Format.formatter -> t -> unit
