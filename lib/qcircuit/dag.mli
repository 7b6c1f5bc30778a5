(** Directed acyclic graph view of a whole circuit, for analyses such as
    the lint rules; the routers walk {!Streamdag} instead.

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
