(** The benchmark registry: the paper harness's entries, which the CLI,
    the examples, the tests and [bench/e2e]'s workloads also read. *)

type entry = {
  name : string;  (** paper row name *)
  n_qubits : int;
  build : unit -> Qcircuit.Circuit.t;
  heavy : bool;  (** RevLib-scale circuit: fewer seeds per run by default *)
  noise_subset : bool;  (** included in the Figure 11 noise experiments *)
}

val paper_suite : entry list
(** The fifteen benchmarks of Tables I-IV, in paper order. *)

val find : string -> entry
(** @raise Not_found for unknown names. *)

val small_suite : entry list
(** The non-heavy entries; handy for quick runs and tests. *)

val matrix_regress_entries : entry list
(** Benchmark-matrix family instances (random-density, QAOA-ER, brickwork,
    ladder, GHZ chain) that the paper harness's [routers] experiment runs
    after {!small_suite}, so [bench/baselines/paper.json] pins the broader
    workload surface of [bench --only matrix] too. *)
