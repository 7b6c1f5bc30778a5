(** Pass contracts: the property lattice and the static pipeline validator.

    Every transpiler pass declares which circuit properties it [requires]
    on its input, which it [ensures] on its output, which it [invalidates],
    and which it [conflicts] with (properties that must {e not} hold yet —
    e.g. routing must not run after hardware-basis emission, Figure 5 of
    the paper fixes that ordering).  Properties not named in [ensures] or
    [invalidates] are preserved.

    {!step} is that dataflow for one stage.  {!validate} folds it over a
    pass-name sequence and rejects illegal orderings {e before any gate is touched}: a pass whose
    requirement is unmet, a pass conflicting with an established property,
    an unknown pass name, or a pipeline that ends without its goal
    properties all produce [Error] diagnostics located at the offending
    stage. *)

type prop =
  | Lowered_2q
      (** every instruction acts on at most two qubits (directives exempt):
          the shape routing and the 2q-block passes require *)
  | Routed_for
      (** every two-qubit gate acts on a coupled physical pair of the
          device coupling map in scope (CheckMap) *)
  | Hardware_basis  (** only {rz, sx, x, cx} plus directives remain *)
  | Size_preserving
      (** relational: the stage did not increase the circuit's CX-basis
          cost (what "optimization" means in gate counts) *)
  | Semantics_preserved
      (** relational: the stage preserved the circuit unitary (verified on
          small circuits in checked mode) *)

val prop_name : prop -> string

type t = {
  cname : string;  (** stage name as it appears in {!Qroute.Pipeline} *)
  requires : prop list;
  ensures : prop list;
  invalidates : prop list;
  conflicts : prop list;
}

val all : t list
(** The contract registry: one entry per pass/stage the pipeline can run
    ([lower_to_2q], [peephole], [optimize_1q.u], [optimize_1q.zsx],
    [cancellation], [unitary_synthesis], [route], [basis]). *)

val step : string -> prop list -> prop list * Diagnostic.t list
(** [step name state] is one stage of the contract dataflow, the only
    place the [requires], [conflicts], [invalidates] and [ensures] lists
    are read: the property set after stage [name] runs on a circuit
    satisfying [state], and the stage's violations ([contract.requires],
    [contract.conflict], [contract.unknown-pass], located at the stage).
    An unknown stage leaves [state] as it is.  {!validate} folds it over a
    name sequence; {!Checked.run_stages} folds it around each stage it
    runs. *)

val validate :
  ?initial:prop list -> ?goal:prop list -> string list -> Diagnostic.t list
(** [validate ~initial ~goal names] folds {!step} over the pass sequence.
    [initial] (default [[]]) is the property set of the input circuit;
    [goal] (default [[]]) must hold after the last stage
    ([contract.goal]).  Returns only the violations (empty = legal). *)
