(** Benchmarks beyond the paper's table (QASMBench-style extras), used by
    examples and the extended suite. *)

val qaoa_maxcut : ?p:int -> ?seed:int -> int -> Qcircuit.Circuit.t
(** [qaoa_maxcut n] builds a depth-[p] (default 2) QAOA ansatz for MaxCut
    on a random 3-regular-ish graph over [n] vertices: per layer, RZZ on
    every graph edge then RX on every qubit.  Angles and graph are seeded
    and deterministic. *)

val w_state : int -> Qcircuit.Circuit.t
(** W-state preparation |100..0> + |010..0> + ... via the standard
    CRY/CX cascade. *)

val hidden_weight : int -> Qcircuit.Circuit.t
(** A layered parity-counting circuit (CX fan-ins with interleaved T
    gates): dense two-qubit structure with low parallelism, a routing
    stress test. *)

val extended_suite : Suite.entry list
(** {!Suite.paper_suite} plus the extra circuits above. *)
