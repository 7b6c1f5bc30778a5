(** The comparison columns of the paper's tables.

    [CNOT_add = CNOT_total(routed) - CNOT_total(original)], and the Delta
    columns are [1 - value(NASSC)/value(SABRE)] (footnotes of Table I). *)

val delta : float -> float -> float
(** [delta nassc sabre] is [1 - nassc/sabre], as a fraction; 0 when
    [sabre = 0]. *)

val geometric_mean : float list -> float
(** Aggregate of delta values following the paper's convention: deltas are
    [1 - ratio], so the aggregate is [1 - geomean(1 - x)].  Empty list
    yields 0. *)
