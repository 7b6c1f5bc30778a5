(** Commutation analysis (Qiskit's CommutationAnalysis analog).

    For every wire, the ops touching that wire are grouped into maximal runs
    of pairwise-commuting instructions ("commute sets", Section IV-E of the
    paper).  Two instructions commute when their embedded unitaries commute
    on the union of their qubits; results of the pairwise check are cached
    per gate pair, in a per-domain cache (no lock).

    The cache key is an int code plus the exact parameter bits of both
    gates.  The code packs the two gates' {!Qgate.Gate.tag}s, the relative
    qubit pattern (each operand's rank in the sorted union of the two
    operand lists, or absent) and the parameter count.  Parameters compare
    by [Int64.bits_of_float], so [RZ 0.0] and [RZ (-0.0)] are distinct keys
    even though they are equal floats.  The table is open addressing over
    flat arrays with the parameters in an append-only float pool, so a hit
    allocates nothing.  Only pairs whose operand lists each hold at most 2
    qubits are cached, which after lowering is every pair; [Unitary2],
    [MCX], [MCZ] and wider gates are evaluated uncached.  The cache is
    emptied when it holds {!cache_cap} entries and another is added.

    Observability: cache traffic is counted on the current {!Qobs}
    collector as [commutation.cache_lookups] / [cache_hits] /
    [cache_misses] (hits + misses = lookups), plus
    [commutation.uncached_evals] for the pairs that bypass the cache. *)

type t
(** The commute sets of a circuit whose instructions keep stable op ids (the
    indices of the analyzed circuit) while a caller removes ops and rewrites
    gates.  Every set is formed by one greedy scan per wire: an op joins the
    open set iff it commutes with every member, and a directive sits alone.
    {!analyze} runs that scan over every wire; {!rescan} runs the same scan
    over only the sets that the edits since the last scan can change.

    The storage is flat: per wire, the op ids in circuit order and the
    positions where sets start, in two int arrays, so a set is a position
    range on its wire; per op, the set id on each operand in one shared int
    array, and the first two qubits of every cacheable op in another;
    removed ops in a byte mask.  The scan's open set is the position range
    it has filled since the set opened, so forming sets builds no list, and
    two cacheable ops go to the cache without walking their operand lists.
    The scan asks the same pairs in the same order as {!commute} would, so
    the cache counters do not depend on the storage. *)

val analyze : Qcircuit.Circuit.t -> t

val sets_on_wire : t -> int -> int list list
(** [sets_on_wire t q] lists the commute sets on wire [q] in circuit order;
    each set is the list of op ids (circuit order).  It describes the last
    scan: call {!rescan} after edits. *)

val set_index : t -> wire:int -> op:int -> int
(** Index of the commute set holding op [op] on [wire], in the order of
    {!sets_on_wire}.
    @raise Not_found if [op] does not touch [wire], is out of range, or was
    removed before the last scan. *)

val n_ops : t -> int
(** Number of ops of the analyzed circuit, removed ones included. *)

val instr : t -> int -> Qcircuit.Circuit.instr
(** The op's instruction, with its gate as last rewritten. *)

val same_sets : t -> int -> int -> bool
(** [same_sets t a b]: ops [a] and [b] have as many operands and share a
    commute set on each operand, in order.  Set ids are unique within [t]
    and never reused, and a set lies on one wire, so this also means the
    two ops act on the same qubits in the same order.  A set that {!rescan}
    leaves alone keeps its id. *)

val sets_hash : t -> int -> int
(** A hash of the op's set ids, operand by operand: equal for two ops that
    {!same_sets} relates. *)

val remove : t -> int -> unit
(** Remove an op that is present at the last scan. *)

val rewrite : t -> int -> Qgate.Gate.t -> unit
(** Replace the gate of an op that is present at the last scan by a gate
    of the same arity. *)

val rescan : t -> int array
(** Re-form the commute sets that the edits since the last scan can
    change, and return the ops that the scan placed in fresh sets, each
    once, in ascending op id.  Greedy grouping from a set start depends only on the ops after
    it, so on each wire with an edit the scan starts at the set before the
    one holding the first edit.  It stops at the first old set start where
    a set opens once every edit on the wire lies behind it, and it jumps
    over runs of old sets with no edit nearby.  The sets are those that
    {!analyze} would form on the edited circuit. *)

val circuit : t -> Qcircuit.Circuit.t
(** The ops not removed, in circuit order, with their current gates. *)

val commute :
  Qgate.Gate.t * int list -> Qgate.Gate.t * int list -> bool
(** Pairwise commutation check between two instructions (exact, matrix
    based).  Instructions on disjoint qubits always commute. *)

val cache_cap : int
(** Entries a domain's cache holds at most (65,536): adding one more
    empties it first, so a long-lived process cannot grow it without
    bound.  A whole untraced benchmark run stays well below it. *)

val reset_cache : unit -> unit
(** Empty the calling domain's commutation cache.  The trial engine resets
    at the start of every traced trial so the cache counters above are a
    pure function of the trial's work, independent of domain reuse. *)
