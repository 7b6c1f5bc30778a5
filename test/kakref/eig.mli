(** Eigensolvers for small real symmetric matrices.

    The KAK decomposition needs an orthogonal matrix that simultaneously
    diagonalizes the (commuting) real and imaginary parts of a symmetric
    unitary 4x4 matrix; both routines here served that purpose.
    [Qpasses.Weyl.decompose] now runs the same sweeps inside its kernel;
    this module is kept, unchanged but for {!degenerate_blocks}, as part of
    the reference that kernel is tested against ({!Weyl_ref}).

    {b Storage.} A real [n x n] matrix is one row-major [Float.Array.t] of
    [n * n] entries (entry [(i, j)] at index [i * n + j]); [n] is read from
    the length.  The loops perform exactly the float operations of the
    [float array array] solver they replaced, in the same order, so every
    result is bit-for-bit the same.
    @raise Invalid_argument from every function when the length is not a
    perfect square. *)

val jacobi : Float.Array.t -> Float.Array.t * Float.Array.t
(** [jacobi a] diagonalizes the real symmetric matrix [a] by cyclic Jacobi
    sweeps.  Returns [(eigenvalues, v)] with [v] orthogonal, columns being
    eigenvectors: [a = v . diag(eigenvalues) . v^T].  [a] is not modified. *)

val simultaneous_diagonalize : Float.Array.t -> Float.Array.t -> Float.Array.t
(** [simultaneous_diagonalize a b] returns an orthogonal [p] such that both
    [p^T a p] and [p^T b p] are diagonal.  Requires [a], [b] symmetric and
    commuting (as in the KAK construction); degenerate eigenspaces of [a]
    are re-diagonalized against [b]. *)

val degenerate_blocks : int Atomic.t
(** Degenerate eigenspaces {!simultaneous_diagonalize} has re-diagonalized
    against [b], counted so that a test can check its inputs reach them. *)

val off_diagonal_norm : Float.Array.t -> float
(** Frobenius norm of the strictly off-diagonal part; used in tests. *)
