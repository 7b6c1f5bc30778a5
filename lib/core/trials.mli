(** Parallel best-of-N trial engine over OCaml 5 domains.

    SABRE-family routing is randomized, and production transpilers (e.g.
    Qiskit's [SabreSwap]) exploit that by running many seeded trials in
    parallel and keeping the best result.  This module provides that
    machinery generically: trial [k] of a run with base seed [s] always uses
    seed [s + k * seed_stride], shared inputs stay read-only across domains,
    and the winner is picked by a deterministic total order — so results are
    reproducible regardless of worker count or scheduling, and trial 0
    reproduces the single-shot path bit-for-bit.

    Observability: when the calling domain has a {!Qobs} collector
    installed, every trial runs under its own fresh collector (keyed by
    trial index, not by domain) and the collectors are merged into the
    caller's in trial order after the join — so traces, counters and spans
    are identical for any worker count.  [trials.ok] / [trials.failed]
    count per-trial outcomes on the caller's collector.

    Failure policy: a trial that raises is isolated — it is recorded in the
    per-trial statistics with its [error] message and excluded from best
    selection; the pool itself never deadlocks or leaks a domain.  Only when
    {e every} trial fails is the first trial's exception re-raised, so
    systematic errors (circuit wider than the device, say) surface exactly
    as they would from a single-shot call. *)

val seed_stride : int
(** Prime stride between per-trial seeds (104729, the 10000th prime —
    distinct from the +7919 offset {!Engine.layout_rng} uses, so trial
    streams never collide with layout streams). *)

val trial_seed : base:int -> int -> int
(** [trial_seed ~base k] = [base + k * seed_stride]; [trial_seed ~base 0 =
    base], which is what makes a 1-trial run identical to the single-shot
    path. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1. *)

val inflight : unit -> int
(** Number of trials executing right now, across every pool in the
    process.  A lock-free probe for the Qtel resource sampler's
    pool-utilization gauge; 0 whenever no {!run} or {!map} is active.
    Deliberately kept out of traces — its value depends on scheduling. *)

val map : ?workers:int -> n:int -> (int -> 'a) -> ('a, exn) result array
(** [map ~workers ~n f] evaluates [f k] for [k = 0..n-1] on a pool of
    [workers] domains (default {!default_workers}, capped at [n]) and
    returns the outcomes in trial order.  Exceptions are captured per slot.
    With [workers:1] everything runs on the calling domain, in order. *)

type stat = {
  trial : int;
  seed : int;  (** the derived per-trial seed *)
  cx_total : int;
  depth : int;
  n_swaps : int;
  wall_time : float;  (** seconds of wall clock spent in this trial *)
  error : string option;  (** [Some msg] iff the trial raised *)
}
(** Per-trial outcome.  Failed trials carry [max_int] metrics and an
    [error]. *)

val better : stat -> stat -> bool
(** The order the winner is chosen by: [better a b] when [a] has fewer
    [cx_total], then (on a tie) smaller [depth], then a lower trial
    index. *)

type 'a report = {
  best : 'a;
  best_stat : stat;
  stats : stat list;  (** all [n] trials, in trial order *)
  wall_time : float;  (** whole-run wall clock *)
  workers : int;  (** worker count actually used *)
}

val run :
  ?workers:int ->
  n:int ->
  base_seed:int ->
  measure:('a -> int * int * int) ->
  (trial:int -> seed:int -> 'a) ->
  'a report
(** [run ~n ~base_seed ~measure f] executes [f ~trial:k ~seed:(trial_seed
    ~base:base_seed k)] for each [k], scores each finished trial with
    [measure] (returning [(cx_total, depth, n_swaps)]), and returns the
    winner by {!better}.  @raise the first trial's exception if all [n] trials fail. *)
