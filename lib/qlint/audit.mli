(** Machine-checking the heuristic's inputs (paper eq. 1).

    NASSC's cost model trusts two ingredients: the pairwise commutation
    relation ({!Qpasses.Commutation.commute}) and the CNOT-savings
    estimates [C_2q] / [C_commute1] / [C_commute2].  This audit verifies
    both against small-unitary ground truth:

    - {!commutation_tables} sweeps the whole gate vocabulary over every
      qubit-overlap pattern and checks each claimed answer against an
      independent dense-unitary computation; every pair claimed commuting
      must additionally satisfy {!Qsim.Equiv.unitary_equal} under
      reordering — the semantic fact downstream cancellation relies on.
    - {!savings} checks the Weyl-chamber CNOT cost (fast invariant path vs
      exact eigendecomposition vs the CNOTs {!Qpasses.Synth2q.synthesize}
      actually emits, with the synthesis verified to reconstruct its input),
      the [C_2q] merge bonus [(cost(B) + 3) - cost(SWAP.B)] against
      realized re-synthesis on random blocks, and the [C_commute1] /
      [C_commute2] cancellation claims against what
      {!Qpasses.Cancellation} actually removes on witness fragments. *)

type report = {
  pairs_checked : int;  (** commutation pairs audited *)
  scenarios_checked : int;  (** savings scenarios audited *)
  diags : Diagnostic.t list;  (** violations; empty = the tables are sound *)
}

val commutation_tables : unit -> report
val savings : ?seed:int -> unit -> report

val optimality : ?seed:int -> unit -> report
(** Computes the gap row ({!Qbench.Gapcorpus.row}, routing at [seed],
    default {!Qbench.Gapcorpus.seed}) of a few gap-corpus instances, so
    the optimum is certified with the gap table's oracle budget and the
    hop-metric routers are those it scores: any router inserting fewer
    SWAPs than the oracle's free-layout minimum is a soundness violation
    (of the oracle or of the router's swap accounting) and is reported as
    an [audit.optimality] error. *)

val run : ?seed:int -> unit -> report
(** All three audits; [diags] concatenated. *)
