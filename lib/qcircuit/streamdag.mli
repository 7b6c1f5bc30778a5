(** Bounded sliding-window dependency DAG over an instruction {!Source}.

    [Dag.Traversal] materializes the whole circuit graph before routing.
    This module admits gates lazily from a pull source, building pred/succ
    links from per-wire tails as gates enter the window, and retires a
    node's storage as soon as it executes — resident memory is
    O(window + n_qubits) however long the stream is.

    Window invariant (DESIGN.md §16): a node stays resident from admission
    until execution; per-wire tails keep at most one already-executed node
    per wire (the latest admitted gate on that wire, needed to link the
    next admission).  Everything older is unreachable and collected.

    With [window >= total gates] the admission order, front order,
    promotion order and lookahead BFS order are identical to
    [Dag.Traversal] on the materialized circuit, which is what keeps
    windowed routing byte-compatible with the classic engine (the golden
    corpus pins this). *)

type t

val create : window:int -> Source.t -> t
(** Admit up to [window] gates immediately.  Gates must act on at most two
    qubits (directives excepted) and on wires within the source's qubit
    count. @raise Invalid_argument otherwise (checked per admission). *)

val n_qubits : t -> int

val front : t -> int list
(** Ready (indegree-0, unexecuted) node ids in the same order
    [Dag.Traversal.front] maintains: admission order seeds, promotions
    append in ascending id order. *)

val gate : t -> int -> Qgate.Gate.t
(** Gate of a resident (admitted, unexecuted) node.
    @raise Not_found once the node executed or before admission. *)

val qubits : t -> int -> int list

val execute : t -> int -> unit
(** Retire a front node: emit its successors' indegree decrements, append
    newly-ready nodes to the front, drop the node's storage, and admit
    replacement gates from the source until the window is full again.  The
    node leaves the front in place and promotions are appended, as
    {!Dag.retire} does.
    @raise Invalid_argument if the node is not on the front (not resident,
    or still waiting on a predecessor); the front is then unchanged. *)

val finished : t -> bool
(** True when the source is exhausted and every admitted gate executed. *)

val executed_count : t -> int

val admitted_count : t -> int

val resident : t -> int
(** Unexecuted admitted nodes — the live window occupancy. *)

val peak_resident : t -> int
(** High-water mark of {!resident} since creation (the O(window) claim,
    measured). *)

val lookahead : t -> int -> int list
(** [lookahead t k]: up to [k] two-qubit gate ids reachable from the front
    by the same BFS [Dag.Traversal.lookahead] runs, restricted to admitted
    gates.  Cached until the front or the admission horizon changes. *)
