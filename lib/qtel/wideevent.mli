(** One structured, wide event per {!Qroute.Pipeline.transpile} call — the
    per-request telemetry record of the future routing-as-a-service
    daemon.

    A wide event gathers everything known about one job into a single
    JSON object: identity (label, router, topology, trials, seed), input
    and output circuit metrics, per-trial outcomes, realized-savings
    buckets from the flight recorder, cache hit counters from the trace,
    and the lint verdict when the caller ran it.

    Determinism contract (mirrors the recorder): {!to_json} with the
    default [times:false] is a pure function of the computation —
    byte-identical across runs and worker counts — because every field is
    drawn from worker-count-invariant sources (trace counters, recorder
    totals, trial statistics).  [times:true] appends an ["rt"] sub-object
    with the nondeterministic environment: wall/CPU milliseconds, the
    worker count, and per-stage span durations. *)

type t

val build :
  ?label:string ->
  ?router:string ->
  ?topology:string ->
  ?trials:int ->
  ?workers:int ->
  ?seed:int ->
  ?original:Qcircuit.Circuit.t ->
  ?trace:Qobs.Trace.t ->
  ?recorder:Qobs.Recorder.totals ->
  ?lint_errors:int ->
  result:Qroute.Pipeline.result ->
  unit ->
  t
(** Assemble the event.  Every context field is optional: omitted ones are
    simply absent from the JSON (the deterministic core never emits
    placeholder values that would differ between call sites). [workers]
    is only ever rendered inside the [times:true] ["rt"] object. *)

val to_json : ?times:bool -> t -> string
(** One compact JSON object (no trailing newline), keys in fixed order. *)

val append : dest:string -> string -> unit
(** Append one line to the JSONL sink [dest] ("-" = stderr). *)
