(** Euler-angle decompositions of 2x2 unitaries.

    Convention (Qiskit-compatible):
    - [Rz a = diag(e^{-ia/2}, e^{ia/2})]
    - [Ry t = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]]
    - [U(theta,phi,lam)] is Qiskit's [u] gate, equal to
      [e^{i(phi+lam)/2} Rz(phi) Ry(theta) Rz(lam)]. *)

type zyz = { theta : float; phi : float; lam : float; phase : float }
(** [u = e^{i phase} Rz(phi) Ry(theta) Rz(lam)]. *)

val rz_mat : float -> Mat.t
val ry_mat : float -> Mat.t
val rx_mat : float -> Mat.t
val u_mat : float -> float -> float -> Mat.t
(** [u_mat theta phi lam] is the Qiskit [U] gate unitary. *)

val u_angles_of_unitary : Mat.t -> float * float * float
(** [(theta, phi, lam)] with [input = e^{i g} U(theta,phi,lam)] for some
    global phase [g], which is not computed: the matrix is normalized to
    SU(2) and the angles read off its entries.  {!zyz_of_unitary} and
    {!u_params_of_unitary} return these same angles, bit for bit, with the
    phase added.  Raises [Invalid_argument] on wrong shape. *)

val zyz_of_unitary : Mat.t -> zyz
(** Decompose a 2x2 unitary: {!u_angles_of_unitary}, then the global phase,
    recovered by rebuilding the matrix from the angles.  Total
    reconstruction error is < 1e-9 for unitary input; raises
    [Invalid_argument] on wrong shape. *)

val zyz_to_mat : zyz -> Mat.t
(** Reconstruct the unitary, including global phase. *)

val u_params_of_unitary : Mat.t -> float * float * float * float
(** [(theta, phi, lam, phase)] with [input = e^{i phase} U(theta,phi,lam)].
    Callers that discard [phase] should call {!u_angles_of_unitary}, which
    returns the same angles without rebuilding the matrix. *)

val is_identity_angles : ?eps:float -> float * float * float -> bool
(** Whether [U(theta,phi,lam)] is the identity up to global phase. *)
