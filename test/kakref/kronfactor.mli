(** Factor a 4x4 matrix into a Kronecker product of 2x2 matrices.

    The KAK synthesis used it to split the single-qubit "local" corrections
    [K = A (x) B] out of a 4x4 unitary known to be a tensor product.
    [Qpasses.Weyl.decompose] now runs the same steps inside its kernel;
    this module is kept, unchanged, as part of the reference that kernel
    is tested against ({!Weyl_ref}). *)

val kron_factor : Mat.t -> (Cx.t * Mat.t * Mat.t) option
(** [kron_factor m] returns [Some (g, a, b)] with [m = g (a (x) b)], where
    [a] and [b] have determinant 1 (SU(2) for unitary input).  Returns
    [None] when [m] is not a Kronecker product within 1e-6. *)
