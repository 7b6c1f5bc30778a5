(** Prometheus / OpenMetrics text-format exposition over a {!Qobs.Trace}.

    Dependency-free rendering of the whole Qobs registry — counters,
    gauges and {!Qobs.Hist} histograms — in the exposition format every
    Prometheus-compatible scraper understands, so the future
    routing-as-a-service daemon can mount {!to_string} at [/metrics] and
    the CLI can dump the same text with [--metrics].

    Determinism contract: the output is a pure function of the trace.
    Families are emitted counters first, then gauges, then histograms,
    each section sorted by metric name; within a gauge family, series are
    sorted by trial label.  A deterministic trace therefore renders to
    byte-identical exposition text for any worker count.

    Naming: every Qobs identity [foo.bar_baz] becomes
    [nassc_foo_bar_baz] (characters outside [[A-Za-z0-9_]] map to [_]).
    Counters additionally get the conventional [_total] suffix.
    Histograms render as cumulative
    [_bucket{le="..."}] series over the shared {!Qobs.Hist} bucket layout
    (only buckets up to the last occupied one, then [le="+Inf"]), plus
    [_sum] and [_count]. *)

val metric_name : string -> string
(** Sanitized exposition name of a Qobs identity (no kind suffix). *)

val to_string : Qobs.Trace.t -> string
(** Render the full exposition page, terminated by [# EOF]. *)
