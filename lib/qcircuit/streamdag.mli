(** The dependency DAG the routers walk.

    Node [i] depends on node [j] when they share a qubit and [j] comes
    earlier on that wire (Section IV-B of the paper).  The DAG comes in two
    halves (DESIGN.md §26):

    - a {!Plan}: the whole circuit's DAG in flat int arrays (successors in
      compressed rows, ascending id order; initial indegrees; each
      two-qubit gate's qubits packed in one int).  It is built once per
      circuit and direction and never written again, so every layout pass,
      the final route and every trial on any domain walk one plan;
    - a walk {!t}: the per-pass state over int node handles (indegrees
      blitted from the plan, the front as a linked list threaded through
      int arrays, the lookahead BFS's stamps and queue).  {!reset} starts
      the next pass in the same arrays.

    A bounded-window walk ({!create}) admits gates lazily from a pull
    {!Source} into the same flat layout: pred/succ links are built from
    per-wire tails as gates enter the window, and an executed gate's slot
    is reused, so resident memory is O(window + n_qubits) however long the
    stream is.

    Front order (DESIGN.md §16, §26): the initial front is the
    indegree-0 gates in id order, and each {!execute} removes its node in
    place and appends the nodes it made ready in ascending id order, then
    the ready gates its refill admitted.  Plans and streams share this
    rule, so with a window at least the circuit's size both walk the same
    fronts and lookaheads.

    A {!node} is an int handle read by {!gate}, {!qubits}, {!qa} and
    {!qb} without a lookup.  It belongs to the walk that produced it and
    names its node until that node executes; {!execute} rejects it after. *)

module Plan : sig
  type t

  val of_circuit : ?reverse:bool -> Circuit.t -> t
  (** The DAG of a circuit, or with [~reverse:true] of the circuit run
      backwards without its [Measure] gates (barriers stay, in reversed
      position): the input of the layout search's backward passes.  Gates
      must act on at most two qubits (directives excepted).
      @raise Invalid_argument otherwise, at the first offending gate. *)

  val size : t -> int
  (** Number of nodes. *)

  val count : unit -> int
  (** Plans built by {!of_circuit} so far in this process, on any domain
      (a probe for tests). *)
end

type t

type node = int

val of_plan : Plan.t -> t
(** A walk at the start of a plan.  The plan is only read, so any number
    of walks, on any domains, may share it. *)

val reset : t -> Plan.t -> unit
(** Restart a plan walk at the start of a (possibly different) plan,
    reusing its arrays.
    @raise Invalid_argument on a bounded-window walk. *)

val create : window:int -> Source.t -> t
(** A bounded-window walk: admit up to [window] gates immediately.  Gates
    must act on at most two qubits (directives excepted) and on wires
    within the source's qubit count, and a two-qubit gate on exactly two.
    @raise Invalid_argument otherwise (checked per admission). *)

val front_first : t -> node
(** The first ready (indegree-0, unexecuted) node, or -1 when none is. *)

val front_next : t -> node -> node
(** The front node after a front node, or -1 at the end. *)

val front : t -> node list
(** The whole front in order (allocates; for tests). *)

val id : node -> int
(** Admission index: the gate's position in the plan or the source. *)

val gate : t -> node -> Qgate.Gate.t
val qubits : t -> node -> int list

val qa : t -> node -> int
(** The first qubit of a two-qubit gate; -1 for any other node. *)

val qb : t -> node -> int
(** The second qubit of a two-qubit gate; -1 for any other node. *)

val execute : t -> node -> unit
(** Retire a front node: decrement its successors' indegrees, append the
    newly ready ones to the front and, on a bounded window, admit
    replacement gates from the source until the window is full again.
    @raise Invalid_argument if the node is not on the front (already
    executed, or still waiting on a predecessor); the front is then
    unchanged. *)

val finished : t -> bool
(** True when every gate executed (and a stream's source is exhausted). *)

val executed_count : t -> int

val admitted_count : t -> int
(** Gates admitted so far; a plan's size for a plan walk. *)

val peak_resident : t -> int
(** High-water mark of the unexecuted admitted nodes (the O(window)
    claim, measured); a plan's size for a plan walk. *)

val lookahead_into : t -> int -> node array -> int
(** [lookahead_into t k buf] writes up to [k] two-qubit gates reachable
    from the front by breadth-first search in dependency order (the paper's
    extended layer E), restricted to admitted gates, into [buf] (length at
    least [k]) and returns their number.  Allocates nothing. *)

val lookahead : t -> int -> node list
(** {!lookahead_into} as a list (allocates; for tests). *)
