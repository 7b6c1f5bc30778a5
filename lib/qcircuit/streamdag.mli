(** The dependency DAG the routers walk, over an instruction {!Source}.

    Node [i] depends on node [j] when they share a qubit and [j] comes
    earlier on that wire (Section IV-B of the paper).  Gates are admitted
    lazily from a pull source, pred/succ links are built from per-wire
    tails as gates enter the window, and a node's storage is dropped as
    soon as it executes, so resident memory is O(window + n_qubits) however
    long the stream is.  Batch routing and the layout search use
    [window = max_int], which admits, and so checks, the whole circuit in
    {!create}; streaming uses a bounded window.

    Window invariant (DESIGN.md §16): a node stays resident from admission
    until execution; per-wire tails keep at most one already-executed node
    per wire (the latest admitted gate on that wire, needed to link the
    next admission).  Everything older is unreachable and collected.

    Nodes are handed out as abstract handles: {!front} and {!lookahead}
    return them, and {!gate}, {!qubits} and {!id} read them without a
    lookup.  A handle belongs to the [t] that produced it. *)

type t

type node

val create : window:int -> Source.t -> t
(** Admit up to [window] gates immediately.  Gates must act on at most two
    qubits (directives excepted) and on wires within the source's qubit
    count. @raise Invalid_argument otherwise (checked per admission). *)

val front : t -> node list
(** Ready (indegree-0, unexecuted) nodes: admission order seeds it, and
    each {!execute} removes its node in place and appends the nodes it made
    ready in ascending id order, then the ready gates its refill admitted. *)

val id : node -> int
(** Admission index: the gate's position in the source. *)

val gate : node -> Qgate.Gate.t
val qubits : node -> int list

val execute : t -> node -> unit
(** Retire a front node: decrement its successors' indegrees, append the
    newly ready ones to the front, drop the node's storage, and admit
    replacement gates from the source until the window is full again.
    @raise Invalid_argument if the node is not on the front (already
    executed, or still waiting on a predecessor); the front is then
    unchanged. *)

val finished : t -> bool
(** True when the source is exhausted and every admitted gate executed. *)

val executed_count : t -> int

val admitted_count : t -> int

val peak_resident : t -> int
(** High-water mark of the unexecuted admitted nodes since creation (the
    O(window) claim, measured). *)

val lookahead : t -> int -> node list
(** [lookahead t k]: up to [k] two-qubit gates reachable from the front
    by breadth-first search in dependency order (the paper's extended
    layer E), restricted to admitted gates.  Cached until the front or the
    admission horizon changes. *)
