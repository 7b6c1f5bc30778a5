(** Directed acyclic graph view of a circuit.

    Node [i] depends on node [j] when they share a qubit and [j] appears
    earlier on that wire (Section IV-B of the paper).  Node ids equal the
    instruction's index in the source circuit, so DAG analyses and list
    passes can exchange results by id. *)

type node = {
  id : int;
  gate : Qgate.Gate.t;
  qubits : int list;
  preds : (int * int) list;  (** (qubit, predecessor id) per input wire *)
  succs : (int * int) list;  (** (qubit, successor id) per output wire *)
}

type t

val of_circuit : Circuit.t -> t
val n_qubits : t -> int
val n_nodes : t -> int
val node : t -> int -> node
val nodes : t -> node array
val to_circuit : t -> Circuit.t

val pred_on : t -> int -> int -> int option
(** [pred_on dag id q] is the id of the previous op on wire [q], if any. *)

val succ_on : t -> int -> int -> int option
val first_on_wire : t -> int -> int option
val pred_ids : t -> int -> int list
(** Distinct predecessor ids. *)

val succ_ids : t -> int -> int list

val retire : int list -> int -> int list -> int list
(** [retire front id promoted] is [front] without [id], followed by
    [promoted]: the front after [id] executes, in the order both walkers
    keep (removal in place, promotions appended).  One walk of [front]; the
    suffix after [id] is shared when [promoted] is empty. *)

module Traversal : sig
  (** Mutable front-layer traversal used by the routers. *)

  type dag := t
  type t

  val create : dag -> t
  val front : t -> int list
  (** Current front layer: unexecuted nodes whose predecessors have all been
      executed. *)

  val execute : t -> int -> unit
  (** Mark a front-layer node executed, promoting newly-ready successors:
      the node leaves the front in place and the promoted ones are appended
      in successor-id order ({!retire}).
      @raise Invalid_argument if the node is not on the front (not yet
      ready, already executed, or out of range); the front is then
      unchanged. *)

  val finished : t -> bool
  val executed_count : t -> int

  val lookahead : t -> int -> int list
  (** [lookahead tr k] returns up to [k] two-qubit node ids that follow the
      current front layer in dependency order (the paper's extended layer
      E). *)
end
