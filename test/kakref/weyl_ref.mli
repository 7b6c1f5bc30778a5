(** The KAK decomposition before it became one kernel: the reference for
    the bit-identity property of [Qpasses.Weyl.decompose]. *)

val decompose : Mathkit.Mat.t -> Qpasses.Weyl.t
(** Bit for bit what [Qpasses.Weyl.decompose] must return, and the same
    [Invalid_argument] messages. *)

val parts : Mathkit.Mat.t -> Float.Array.t * Float.Array.t
(** The real and imaginary parts of a matrix, each row-major, as the
    eigensolver reads them. *)
