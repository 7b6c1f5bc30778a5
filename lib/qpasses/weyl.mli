(** Cartan (KAK) decomposition of two-qubit unitaries.

    Any [u] in U(4) factors as

      [u = e^{i phase} (k1l (x) k1r) . N(x,y,z) . (k2l (x) k2r)]

    where [N(x,y,z) = exp(i (x XX + y YY + z ZZ))] is the canonical gate and
    the [k]s are single-qubit unitaries ([k1l] acts on the first / most
    significant qubit).  Coordinates are canonicalized into the Weyl chamber
    [pi/4 >= x >= y >= |z|], with [z >= 0] whenever [x = pi/4], so two
    unitaries are locally equivalent iff their coordinates agree.  The
    chamber position determines the minimal CNOT count (Vidal-Dawson /
    Shende-Bullock-Markov):

    - (0,0,0): 0 CNOTs (local product)
    - (pi/4,0,0): 1 CNOT
    - z = 0: 2 CNOTs
    - otherwise: 3 CNOTs *)

type t = {
  phase : float;
  k1l : Mathkit.Mat.t;
  k1r : Mathkit.Mat.t;
  x : float;
  y : float;
  z : float;
  k2l : Mathkit.Mat.t;
  k2r : Mathkit.Mat.t;
}

val magic_basis : Mathkit.Mat.t
(** The magic basis change E (columns are the magic Bell states). *)

val canonical_gate : float -> float -> float -> Mathkit.Mat.t
(** [canonical_gate x y z] is [N(x,y,z)]. *)

val decompose : Mathkit.Mat.t -> t
(** Full KAK decomposition with chamber-canonical coordinates.  Adds one
    to the Qobs counter [weyl.decompositions].

    One straight-line kernel over a per-domain float workspace: it builds
    no intermediate matrix, complex number or list, and allocates only the
    four 2x2 factors it returns.  Every step performs the float operations
    of the [Mat], eigensolver and Kronecker-factor code it replaced, in the
    same order (zero-left-entry skips, [Float.hypot] moduli, [Complex.div]
    and [Complex.sqrt] written out, [Array.sort]'s order of tied
    eigenvalues, [List.sort]'s tie rule in the chamber sort), so every
    result is bit-for-bit that code's; the test suite keeps the old code as
    the reference.
    @raise Invalid_argument if the input is not a 4x4 unitary
    (within 1e-7), or if either local factor fails to split into a
    Kronecker product within 1e-6. *)

val reconstruct : t -> Mathkit.Mat.t
(** Multiply the factors back together (inverse of {!decompose}). *)

val coords : Mathkit.Mat.t -> float * float * float
(** Just the canonical coordinates. *)

val cnot_class : t -> int
(** Minimal CNOT count (0-3) of a decomposition by its chamber position,
    each coordinate compared within 1e-8: the one home of the chamber
    rule, read by {!cnot_cost} and by [Synth2q.kak]. *)

val cnot_cost : Mathkit.Mat.t -> int
(** [cnot_class (decompose u)]. *)

val cnot_cost_fast : Mathkit.Mat.t -> int
(** Same classification as {!cnot_cost} but via the gamma-trace invariants
    (no eigendecomposition), each test within 1e-7: 0 iff |tr| = 4; 1 iff
    tr = 0 and tr gamma^2 = -4; 2 iff tr is real; else 3.  NASSC's [C_2q]
    ([Nassc.c2q_saving]) classifies with it. *)

val gamma_invariants : Mathkit.Mat.t -> Mathkit.Cx.t * Mathkit.Cx.t
(** Makhlin-style local invariants [(tr^2(gamma)/16, (tr^2 - tr gamma^2)/4)]
    of the det-normalized input, where
    [gamma(u) = u (Y(x)Y) u^T (Y(x)Y)], from the same two traces
    {!cnot_cost_fast} reads.  Used as a cross-check in tests. *)
