(** Opt-in background resource sampler: GC statistics, resident-set size
    and routing-pool utilization on a timeline.

    A single extra domain wakes every [interval_ms], records one {!sample}
    into a bounded ring buffer (oldest overwritten first — memory is
    constant however long the process runs), and goes back to sleep.  Each
    sample carries [Gc.quick_stat] words/heap/compactions, VmRSS/VmHWM
    parsed from [/proc/self/status] (0 on platforms without procfs), CPU
    time, and {!Qroute.Trials.inflight} — the live trial count of the
    routing pool, which is the utilization signal the future serve daemon
    needs.

    Nothing runs until a caller that opted in ([--sample], the scaling
    bench) calls {!start}; without it no domain is spawned and traces stay
    byte-identical.  Values are wall-clock-driven and therefore
    nondeterministic; they only ever reach a trace through {!attach}, which
    the caller invokes explicitly. *)

type sample = {
  t_s : float;  (** seconds since {!start} *)
  cpu_s : float;  (** process CPU seconds at the sample *)
  minor_words : float;
  major_words : float;
  heap_words : int;
  compactions : int;
  rss_kb : int;  (** current VmRSS in kB; 0 without procfs *)
  hwm_kb : int;  (** peak VmHWM in kB; 0 without procfs *)
  inflight : int;  (** {!Qroute.Trials.inflight} at the sample *)
}

type t

val start : ?interval_ms:float -> ?capacity:int -> unit -> t
(** Spawn the sampler domain and take a first sample immediately.
    [interval_ms] defaults to 10 ms, [capacity] (ring size) to 4096
    samples. *)

val stop : t -> unit
(** Take a final sample, stop the domain and join it.  Idempotent. *)

val samples : t -> sample list
(** Chronological retained samples (the ring keeps the newest
    [capacity]).  Call after {!stop}; during a run it returns a consistent
    snapshot under the ring's lock. *)

val peak_rss_kb : t -> int
(** Highest RSS seen across retained samples (VmHWM when available). *)

val attach : t -> Qobs.Collector.t -> unit
(** Merge the run's resource story into a collector as [qtel.*] gauges
    (sample count, peak/final RSS, GC words and compactions deltas, peak
    inflight, sampled wall seconds) plus a [qtel.sample.rss_kb] histogram
    of the per-sample RSS timeline.  Values are nondeterministic — attach
    only to traces the caller opted into sampling ([--sample]). *)

val pp_summary : Format.formatter -> t -> unit
(** One-paragraph human summary (what [--sample] prints to stderr). *)
