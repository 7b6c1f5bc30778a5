(** Merge runs of single-qubit gates (Qiskit's Optimize1qGates analog).

    Consecutive one-qubit gates on the same wire are multiplied together and
    re-emitted either as one [U] gate or in the hardware's {rz, sx} basis.
    Runs that multiply to the identity disappear entirely.  [Id] gates are
    dropped without ending a run; every other gate (two-qubit gates,
    barriers, measures) ends the runs on its wires.

    Within one [run] call, each run's output is memoized by the run's
    exact signature: {!Qgate.Gate.add_signature} of each gate, in circuit
    order.  The signature holds every float's bits, so [RZ 0.0] and
    [RZ (-0.0)] are two keys.  The output is a pure function of the
    signature, so a hit yields exactly the gates a fresh product would.
    Only a miss builds the product and reads its Euler angles with
    {!Mathkit.Euler.u_angles_of_unitary}, never the global phase, which
    the pass drops.  The table lives only for the call, so outputs and
    Qobs counters do not depend on worker count or on earlier calls.
    [optimize_1q.runs] counts every run, [optimize_1q.runs_synthesized]
    the misses. *)

type mode =
  | U_gate  (** emit a single [U(theta,phi,lam)] per run *)
  | Zsx  (** emit [rz.sx.rz.sx.rz] (or shorter special cases): hardware basis *)

val run : mode -> Qcircuit.Circuit.t -> Qcircuit.Circuit.t

val zsx_ops : float -> float -> float -> Qgate.Gate.t list
(** [zsx_ops theta phi lam] rewrites [U(theta,phi,lam)] over {rz, sx} (all
    gates act on the same wire, listed in circuit order).  Uses the one-sx
    form when [theta = pi/2] and plain rz when [theta = 0].  Exposed for
    tests. *)
