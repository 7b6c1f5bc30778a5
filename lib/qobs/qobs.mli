(** Lightweight observability: hierarchical spans, named counters and
    gauges, with near-zero overhead when disabled.

    The pipeline is instrumented unconditionally; whether anything is
    *recorded* depends on a collector being installed on the current domain
    (see {!with_collector}).  With no collector anywhere in the process,
    every probe is a single atomic-load-and-branch, so instrumented code
    stays within noise of the uninstrumented build.

    Identities are interned once at module-initialization time
    ([let c = Qobs.counter "engine.swaps_emitted"]) so hot-path updates are
    an array increment, never a string hash.

    Concurrency model: one collector per logical unit of work (the main
    pipeline, or one routing trial), installed domain-locally.  The trial
    engine creates a fresh collector per {e trial} — not per domain — and
    merges them into the parent in trial order at join, which is what keeps
    traces deterministic across worker counts.  A collector created with
    [~record:true] also keeps the routing flight recorder's decision trail
    (see {!Recorder}). *)

module Hist = Hist
(** The bounded log-bucketed histogram value type (see {!Hist}). *)

val json_escape : string -> string
(** The body of a JSON string literal holding [s]: quote and backslash
    escaped, [\n], [\r] and [\t] by name, every other control character
    as [\u00XX].  The one escaper behind every JSON the project writes:
    traces, recorder trails, [Qverify] certificates, [Qlint] diagnostics
    and [Qbench.Jsonlite] documents. *)

type counter
type gauge

type histogram
(** A named histogram identity; per-collector {!Hist.t} instances are
    created lazily on first {!observe}. *)

val counter : string -> counter
(** Intern a counter by name (idempotent; call at module init). *)

val gauge : string -> gauge
(** Intern a float-valued gauge by name (idempotent). *)

val histogram : string -> histogram
(** Intern a histogram by name (idempotent). *)

val active : unit -> bool
(** True iff a collector is installed on the calling domain. *)

val set_timing : bool -> unit
(** Opt in to wall-clock histogram observations (per-step scoring time and
    friends).  Off by default: timing values are nondeterministic, and
    recording them would break the byte-identical guarantee of the default
    [--trace] export.  Enabled by [--trace-times] and the profile/score
    benches. *)

val timing_enabled : unit -> bool
(** Current state of the {!set_timing} opt-in (process-wide). *)

val set_extended_metrics : bool -> unit
(** Opt in to the extended telemetry gauges (input-circuit size, requested
    trial count, and friends) that the Qtel layer consumes.  Off by
    default: the values are deterministic, but recording them would add
    lines to every existing [--trace] export, so they follow the same
    opt-in discipline as {!set_timing}.  Enabled by [--metrics] /
    [--wide-events] and the telemetry benches. *)

val extended_metrics_enabled : unit -> bool
(** Current state of the {!set_extended_metrics} opt-in (process-wide). *)

val incr : counter -> unit
val add : counter -> int -> unit

val gauge_set : gauge -> float -> unit
(** Last write wins. *)

val gauge_add : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Record one observation on the calling domain's collector (no-op
    without one).  Bounded memory: a fixed-size {!Hist.t} per histogram
    per collector, created on first use. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] (wall and CPU) as a child of the innermost
    open span on this domain's collector.  Exceptions propagate; the span
    still closes.  Without a collector this is just [f ()]. *)

module Collector : sig
  type t

  type span_rec = {
    sp_name : string;
    sp_seq : int;  (** preorder index within this collector, from 0 *)
    sp_parent : int;  (** [sp_seq] of the parent span, [-1] for roots *)
    sp_depth : int;  (** 0 for roots, parent depth + 1 otherwise *)
    sp_start : float;  (** wall clock at open (Chrome export only) *)
    mutable sp_wall : float;  (** seconds of wall clock *)
    mutable sp_cpu : float;  (** seconds of process CPU time *)
  }

  val create : ?trial:int -> ?label:string -> ?record:bool -> unit -> t
  (** Fresh empty collector.  [trial] tags every exported record (the trial
      engine sets it); [label] is a human-readable name ("main").  With
      [record] (default [false]) it also records the routing decision trail
      that {!Recorder} exports. *)

  val trial : t -> int option
  val label : t -> string

  val spans : t -> span_rec list
  (** Completed spans in preorder ([sp_seq] ascending). *)

  val open_spans : t -> int
  (** Number of spans currently open (0 once collection is balanced). *)

  val counters : t -> (string * int) list
  (** Every registered counter with this collector's value (0 when never
      touched here), sorted by name. *)

  val gauges : t -> (string * float) list
  (** Gauges written on this collector, sorted by name. *)

  val histograms : t -> (string * Hist.t) list
  (** Histograms observed on this collector, sorted by name. *)

  val add_child : t -> t -> unit
  (** [add_child parent child] appends [child] to [parent]'s merge list;
      call from the joining domain only, in a deterministic order. *)

  val children : t -> t list
  (** Children in [add_child] order. *)
end

val with_collector : Collector.t -> (unit -> 'a) -> 'a
(** Install a collector on the calling domain for the duration of [f]
    (restoring whatever was installed before).  Nesting installs shadow. *)

val current : unit -> Collector.t option
(** The calling domain's installed collector, if any. *)

module Trace : sig
  type t
  (** A completed collection: a root collector plus its merged children. *)

  val of_root : Collector.t -> t

  val collectors : t -> Collector.t list
  (** Every collector of the trace in preorder: the root, then each child's
      subtree in merge order.  This is the traversal all aggregates and
      exports use (and what the Qtel metrics exposition walks to label
      per-trial gauge series). *)

  val counters_total : t -> (string * int) list
  (** Registered counters summed over the root and every child, sorted by
      name. *)

  val counter_total : t -> string -> int
  (** One counter's total over the whole trace; [0] for names never
      registered (what the bench harnesses use to pull single metrics). *)

  val histograms_total : t -> (string * Hist.t) list
  (** Histograms merged (bucket-count addition, root first then children
      in merge order) over the whole trace, sorted by name. *)

  val to_jsonl : ?times:bool -> t -> string
  (** JSON-lines export: one [span] line per span (root collector first,
      then each child in merge order), then aggregated [counter] lines,
      then per-collector [gauge] lines, then aggregated [hist] lines (only
      for histograms that were actually observed — a run touching no
      histogram exports exactly the pre-histogram format).  With
      [times:false] (the default) the output is a pure function of the
      computation — byte-identical across runs, worker counts and
      machines; [times:true] adds [wall_ms] / [cpu_ms] fields to spans,
      which are inherently nondeterministic. *)

  val to_chrome : t -> string
  (** Chrome [trace_event] JSON (loadable in Perfetto or
      [about://tracing]): one complete event per span, one track per
      collector.  Timestamps are wall clock, so this export is
      nondeterministic. *)

  val pp_summary : Format.formatter -> t -> unit
  (** Human-readable profile: spans aggregated by path (calls, total wall
      and CPU milliseconds, plus p50/p90/p99 per-call wall latency through
      the shared {!Hist} percentile path), then counters, gauges and
      histograms. *)
end

(** The routing flight recorder: the router's decision trail as data.

    Under a recording collector (see {!Collector.create}) every routing
    step records the two-qubit front-layer size, each candidate SWAP with
    its [H_basic] / [H_lookahead] components and the savings bucket its
    bonus drew from ([C_2q] / [C_commute1] / [C_commute2], eq. 1 of the
    paper), and the chosen SWAP; after the downstream passes run, the
    per-trial routed-vs-final CNOT counts (the {e realized} savings).  The
    hooks read the calling domain's collector: with none installed
    anywhere in the process each is a single atomic-load-and-branch, and
    the routers behave byte-identically to an unrecorded run.

    The trial engine gives each per-trial child collector the recording
    state of its parent, and the exports walk {!Trace.collectors} in
    preorder, so {!to_jsonl} is byte-identical for any worker count.
    {!to_chrome} emits the same steps as a Chrome [trace_event] file
    (loadable in Perfetto / [about://tracing]); it uses wall-clock stamps
    and is therefore nondeterministic. *)
module Recorder : sig
  type bucket = No_bucket | C2q | Commute1 | Commute2

  val bucket_name : bucket -> string
  (** ["none"], ["c2q"], ["commute1"], ["commute2"]. *)

  type cand = {
    p1 : int;
    p2 : int;
    h_basic : float;  (** front-layer term of eq. 1, bonus already applied *)
    h_lookahead : float;  (** extended-layer term of eq. 2 *)
    h : float;  (** decayed total the router compared *)
    bonus : float;  (** estimated CNOT savings of this SWAP *)
  }

  type candidate = { cd : cand; cd_bucket : bucket }

  type step = {
    st_seq : int;
    st_router : string;  (** innermost {!in_router} label ("" if none) *)
    st_front : int;  (** two-qubit front-layer size *)
    st_forced : bool;  (** emitted by the stall-escape valve, not scored *)
    st_candidates : candidate list;  (** sorted by [(p1, p2)] *)
    st_chosen : int * int;
    st_chosen_bonus : float;
    st_chosen_bucket : bucket;
    st_time : float;  (** wall clock at record time; Chrome export only *)
  }

  val active : unit -> bool
  (** True iff the calling domain's collector records; one atomic load when
      no collector is installed process-wide. *)

  val without : (unit -> 'a) -> 'a
  (** Suspend recording for the duration of [f]; spans, counters and gauges
      keep collecting (the layout search uses this so only the final
      routing pass lands in the flight record). *)

  val in_router : string -> (unit -> 'a) -> 'a
  (** Label steps recorded during [f] with the given router name. *)

  (** {2 Hooks (no-ops unless the current collector records)} *)

  val note_bucket : p1:int -> p2:int -> bucket -> unit
  (** Called by the cost model while scoring the candidate [(p1, p2)]:
      remembers which savings bucket its bonus drew from until the next
      {!record_step} consumes it. *)

  val record_step :
    front:int ->
    ?forced:bool ->
    candidates:cand list ->
    chosen:int * int ->
    chosen_bonus:float ->
    unit ->
    unit

  val record_result : cx_routed:int -> cx_final:int -> unit
  (** Called once per trial after the downstream passes run. *)

  (** {2 Aggregation and export}

      Each walks the recording collectors of the given collector's tree in
      {!Trace.collectors} preorder; non-recording collectors contribute
      nothing. *)

  val steps : Collector.t -> step list
  (** Recorded steps, each collector's in order. *)

  type totals = {
    steps : int;
    candidates : int;
    forced : int;
    cand_c2q : int;  (** candidates whose bonus drew from [C_2q]... *)
    cand_commute1 : int;
    cand_commute2 : int;
    chosen_c2q : int;  (** ...and chosen SWAPs that did *)
    chosen_commute1 : int;
    chosen_commute2 : int;
    predicted : float;  (** sum of chosen bonuses (eq. 1's prediction) *)
    cx_routed : int;
    cx_final : int;
    realized : int;  (** [cx_routed - cx_final], summed over summaries *)
    trials_summarized : int;
  }

  val totals : Collector.t -> totals

  val schema_version : int

  val to_jsonl : Collector.t -> string
  (** One [recorder_meta] line, then one [step] line per step, then one
      [trial_summary] line per summarized trial.  A pure function of the
      routing computation: byte-identical across runs and worker counts for
      a fixed seed. *)

  val to_chrome : Collector.t -> string
  (** Chrome [trace_event] JSON (one instant event per step plus a
      front-layer-size counter track, one track per recording collector);
      nondeterministic timestamps. *)
end
