(** The optimality-gap corpus: small circuits and devices on which the
    exact oracle can certify the true minimum SWAP count, and the one
    computation of a gap row.  Shared by [bench --only gap], the gap
    golden test, and the golden generator.
    Append-only: recorded optima in [test/goldens/gap.golden] reference
    entries by name. *)

type entry = {
  name : string;
  n_qubits : int;  (** logical qubits, 3..5 *)
  build : unit -> Qcircuit.Circuit.t;
}

val circuits : entry list
(** The full corpus (~20 circuits, 3..5 qubits, bounded depth). *)

val topologies : (string * Topology.Coupling.t) list
(** line5, ring5, grid2x3 — path, cycle, and mesh connectivity. *)

val suite : quick:bool -> entry list
(** [suite ~quick:true] is the CI subset (one entry per family);
    [~quick:false] the full corpus. *)

val routers : (string * Qroute.Pipeline.router) list
(** The routers a gap row scores: sabre, nassc, astar, hybrid. *)

val seed : int
(** The routing seed of every gap row (11). *)

type row = {
  two_q : int;  (** two-qubit gates in the lowered, pre-optimized circuit *)
  optimal : int option;  (** certified minimum SWAP count; [None]: budget exceeded *)
  swaps : (string * int) list;  (** inserted SWAPs per router, in {!routers} order *)
}

val row : entry -> Topology.Coupling.t -> row
(** Certify the entry's optimum on the device with the exact oracle
    (5,000,000-node budget, on the lowered then pre-optimized circuit the
    routers see) and route it once with each of {!routers} at {!seed}. *)

val optimal_string : row -> string
(** The optimum, or ["?"] when the oracle's budget tripped. *)

val fields : row -> string
(** ["2q=N opt=M sabre=S nassc=S astar=S hybrid=S"]: a row as the gap
    golden and [bench --only gap] print it. *)
