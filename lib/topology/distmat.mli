(** Flat distance matrices for the routing hot path.

    The routing engine reads [D.(a).(b)] once per (candidate, pair) — the
    innermost loop of the whole system.  A nested [float array array] costs
    a bounds-checked indirection per row; storing the matrix row-major in
    one flat [float array] keeps the lookup a single offset computation and
    the whole matrix contiguous in cache. *)

type t

val n : t -> int
(** Number of physical qubits (the matrix is [n x n]). *)

val get : t -> int -> int -> float
(** [get d a b] is the distance from [a] to [b]; [infinity] when
    unreachable. *)

val raw : t -> float array
(** The backing row-major array, length [n * n]: entry [(a, b)] lives at
    [a * n + b].  Exposed for hot loops; treat as read-only.
    @raise Invalid_argument on an on-demand matrix (see {!raw_opt}). *)

val raw_opt : t -> float array option
(** [Some] flat backing for dense matrices, [None] for on-demand ones.
    Hot loops branch once on this and fall back to {!get}. *)

val hops : Coupling.t -> t
(** BFS hop counts as floats ([infinity] when disconnected) — the default
    routing metric.  Flat-native and fully dense (all-pairs BFS up
    front). *)

val hops_lazy : Coupling.t -> t
(** Like {!hops}, but rows materialize on first access (backed by
    [Coupling.dist_row]) instead of allocating the dense [n * n] matrix —
    O(rows touched * n) memory, which is what lets 433-qubit streaming
    runs avoid the quadratic table.  Each materialized row bumps the
    [distmat.rows_materialized] counter. *)

val lazy_rows : n:int -> (int -> float array) -> t
(** [lazy_rows ~n produce] builds an on-demand matrix whose row [a] is
    [produce a] (must have length [n]; computed once, cached,
    thread-safe). *)

val rows_materialized : t -> int
(** Rows computed so far ([n] for dense matrices). *)

val is_dense : t -> bool

val of_flat : n:int -> float array -> t
(** Wrap an already-flat row-major array (length must be [n * n]). *)
