(** Synthetic device calibration data.

    The paper's noise-aware experiments (Sections IV-G, VI-D) read CX error
    rates, gate times and readout errors from the real [ibmq_montreal]
    calibration.  We have no device access, so we generate a deterministic
    synthetic snapshot whose magnitudes match the published montreal ranges
    (CX error 0.5-2.5e-2, CX time 250-550 ns, readout error 1-4e-2,
    single-qubit error 2-5e-4).  Routing quality depends on the relative
    ordering of edge fidelities, which any such snapshot exercises. *)

type t

val generate : ?seed:int -> Coupling.t -> t
(** Deterministic synthetic calibration for a device. *)

val create :
  coupling:Coupling.t ->
  cx_error:(int -> int -> float) ->
  ?cx_time:(int -> int -> float) ->
  ?readout_error:(int -> float) ->
  ?sq_error:(int -> float) ->
  unit ->
  t
(** Explicit calibration from per-edge/per-qubit functions — for tests and
    for loading real calibration data.  [cx_error]/[cx_time] are sampled
    once per coupling edge (symmetric); defaults: 400 ns CX, zero readout
    and single-qubit error. *)

val cx_error : t -> int -> int -> float
(** Error rate of the CX on an edge (symmetric).
    @raise Invalid_argument when the qubits are not coupled. *)

val cx_time : t -> int -> int -> float
(** CX duration in seconds. *)

val readout_error : t -> int -> float
val sq_error : t -> int -> float
(** Single-qubit gate error rate. *)

val coupling : t -> Coupling.t

val noise_distmat : ?alpha1:float -> ?alpha2:float -> ?alpha3:float -> t -> Distmat.t
(** The paper's eq. 3: weighted all-pairs shortest paths over edge weights
    [a1 * eps + a2 * T + a3 * 1], with [eps] and [T] normalized to [0, 1]
    across edges.  Defaults are the paper's (0.5, 0, 0.5). *)
