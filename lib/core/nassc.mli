(** NASSC: optimization-aware qubit routing (the paper's contribution).

    NASSC runs the same layered search as SABRE but scores each candidate
    SWAP with the CNOT savings that downstream optimizations will realize
    (paper eq. 1-2):

    - [C_2q]: the SWAP merges into the trailing two-qubit block on its pair
      and KAK re-synthesis absorbs some (or all) of its three CNOTs;
    - [C_commute1]: the SWAP's first CNOT cancels against an earlier CNOT on
      the same pair, reachable through commuting gates (single-qubit gates
      in between are moved through the SWAP);
    - [C_commute2]: two SWAPs on the same pair sandwich a set of commuting
      gates, cancelling one CNOT from each.

    Selected SWAPs are tagged with the decomposition orientation that lets
    {!Qpasses.Cancellation} actually perform the cancellation
    (optimization-aware SWAP decomposition, Section IV-E).

    This module holds the two NASSC pieces: the cost hook {!bonus} and the
    decomposition {!finalize}.  NASSC routing is {!Pipeline.route} with
    them: SABRE's layout search, then a final pass scored with {!bonus}. *)

type config = {
  enable_2q : bool;
  enable_commute1 : bool;
  enable_commute2 : bool;
  orient_swaps : bool;
      (** apply the optimization-aware SWAP decomposition (Section IV-E);
          disabling it is the ablation that keeps the cost model but uses
          the fixed decomposition template *)
  scan_limit : int;
      (** emitted-op window bound for both bonus scans (the C_2q trailing
          block and the commute-set search); the paper uses 20 *)
}

val default_config : config
(** All optimizations on (the paper's choice, Section IV-F). *)

val reset_weyl_cache : unit -> unit
(** Clear this domain's memoized Weyl-cost cache (trailing-block signature
    -> (before, after) CNOT costs).  The pipeline resets it per traced
    trial so the [nassc.weyl_cache_{hits,misses}] counters are a pure
    function of the trial, whatever domain it lands on.  Caching never
    affects routing decisions — keys are exact bit-level signatures. *)

val bonus : config -> Engine.bonus_fn
(** The scoring hook itself (exposed for tests and ablations). *)

val finalize : Engine.out_op list -> Qcircuit.Circuit.instr list
(** Decompose the routed ops' SWAPs: an oriented one into its oriented CNOT
    triple, with the single-qubit gates sitting directly before it moved
    through it; an untagged ([Swap_plain]) one into the fixed
    cx(a,b) cx(b,a) cx(a,b) template, the instructions
    {!Sabre.decompose_swaps} gives.  Every engine router's routed ops are
    finalized here. *)

module Streaming : sig
  (** Incremental {!finalize} for the streaming engine: ops are pushed as
      the routed stream emits them, finished instructions flow to [emit]
      immediately, and only the trailing contiguous run of one-qubit gates
      stays buffered (the only thing a future oriented swap can pull).
      Pushing a whole route and flushing is byte-identical to batch
      {!finalize}. *)

  type t

  val create : emit:(Qcircuit.Circuit.instr -> unit) -> t
  val push : t -> Engine.out_op -> unit
  val flush : t -> unit
  (** Emit everything still buffered (end of stream). *)

  val pending : t -> int
  (** Buffered instruction count (observability/tests). *)
end
