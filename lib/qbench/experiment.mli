(** Experiments as data: the one model of every deterministic bench
    harness.  The paper's evaluation (Section VI, listed in
    [bench/paper.ml]), the benchmark matrix and the optimality-gap table
    are each an {!experiment}: devices, entries, router columns and a
    {!derive} case.  {!run} computes one {!table} per device through one
    memo; {!snapshot} stores a table's deterministic fields and {!lines}
    renders them as golden lines. *)

type column = {
  label : string;
  router : Qroute.Pipeline.router;
  params : Qroute.Engine.params;
      (** the routing parameters; the paper's derive cases replace the
          seed with their own *)
  trials : int;  (** routing trials of each transpile *)
}

type metric = Cx | Depth

type derive =
  | Added  (** each column's mean CNOTs minus the unrouted circuit's *)
  | Vs_sabre of metric
      (** columns SABRE then NASSC: totals, added, both Deltas and their
          geomean footer; the CNOT tables also show the mean wall times *)
  | Best_of
      (** SABRE, then NASSC configurations ending in the all-enabled one:
          the best Delta of added CNOTs against the all-enabled one's *)
  | Success_rates of int
      (** sampled success rate (over that many shots) and ESP of each
          column's seed-1 routing *)
  | Trials_sweep of int list
      (** the one column's best of N trials for each N, and the largest N's
          wall time on one worker and on the default pool *)
  | Matrix
      (** one row per (entry, column) at the column's own seed and trials:
          CNOTs, SWAPs, depth, depth overhead over the unrouted circuit,
          analytic ESP under the device's synthetic calibration, and the
          flight recorder's step and candidate totals *)
  | Gap
      (** {!Gapcorpus.row}: two-qubit gates, the exact optimum ([null]
          when the oracle's budget trips) and each of {!Gapcorpus.routers}'
          inserted SWAPs; the footer sums each router's gap over the
          certified rows.  Takes no columns. *)

type experiment = {
  key : string;  (** the [bench --only] name *)
  title : string;
  devices : (string * Topology.Coupling.t) list;
  entries : Suite.entry list;
  columns : column list;
  derive : derive;
}

val col : ?params:Qroute.Engine.params -> ?trials:int -> string -> Qroute.Pipeline.router -> column
(** A column; [params] defaults to {!Qroute.Engine.default_params},
    [trials] to 1. *)

(** How a field prints.  [Seeds] is stored but not printed; [Mean n] holds
    a sum over [n] seeds and prints as the mean; [Pct] and [Rate] are
    rounded to their printed decimals, so the snapshot holds exactly what
    is printed; [Real] is stored exactly and printed to 4 decimals; [Time]
    is printed but never stored. *)
type kind = Seeds | Count | Mean of int | Pct | Rate | Real | Text | Time

type field = string * kind * Jsonlite.t

type row = {
  entry : string;
  column : string option;  (** the column label, when rows are per column *)
  fields : field list;
}

type table = { device : string; rows : row list; footer : field list }

val row_name : row -> string
(** The entry, then the column label if any: the row's name in the printed
    table and its key in the snapshot. *)

val run :
  ?workers:int -> ?seeds:int -> ?print:bool -> experiment list -> (experiment * table list) list
(** Each experiment's tables, one per device, in order.  One memo serves
    the whole call: each distinct transpile (device, entry, router,
    parameters, trials) runs once, whichever experiments share it.
    [workers] bounds every transpile's trial pool (results do not depend
    on it); [seeds] (default 5, at most 3 for heavy entries) is the number
    of routing seeds of the paper's derive cases; [print] (default false)
    prints each table as it is computed. *)

val snapshot : table list -> Jsonlite.t
(** The tables' stored fields (every kind but [Time]), keyed by device,
    then ["rows"] by {!row_name}, plus the footer if any. *)

val lines : experiment * table list -> string
(** One line per row of an experiment's tables, entries outermost (in
    the experiment's order), then devices, then columns: the entry, the
    device, the column label when rows are per column, then [k=v] for each
    stored field, numbers printed by {!Jsonlite.number_to_string} and
    [null] as ["?"].  The [test/goldens/matrix.golden] and [gap.golden]
    format. *)

val matrix : full:bool -> experiment
(** The benchmark matrix ([bench --only matrix]), after the IQM
    router-benchmarking methodology (arXiv:2502.03908): {!Matrix.instances}
    x {!Matrix.topologies} x every router of {!Qroute.Pipeline.routers},
    each at seed 11 with 4 trials; [full] selects the full axes, otherwise
    the CI subsets. *)

val gap : full:bool -> experiment
(** The optimality-gap table ([bench --only gap]): {!Gapcorpus.suite} x
    {!Gapcorpus.topologies}; [full] selects the whole corpus, otherwise the
    CI subset. *)
