(* One benchmark run: one workload, one seed, a fixed measuring time.

   End-to-end run: set up [setups] times and keep the median set-up time,
   run passes over the workload's jobs (a pass runs every job once, closed
   loop) for [seconds] and at least [min_passes] passes, then gate the first
   pass's outputs.  Every time is calibrated to a reference machine speed
   (see {!Calib}).

   Traced run: the first half of [seconds] runs untraced passes (the
   reference outputs and the untraced throughput), the second half runs the
   public-call replica of every job under a Qobs collector and the
   benchmark's own spans.  Every replica output must equal the pipeline's. *)

open Qroute
module J = Qbench.Jsonlite

let now = Unix.gettimeofday
let setups = 3

(* a job's time is its median over passes, so a run makes at least three
   passes even when a slow machine stretches them past [seconds] *)
let min_passes = 3
let params seed = { Engine.default_params with seed }

type metric = { name : string; value : float; unit_ : string }

let run_job (w : Workloads.t) (job : Workloads.job) =
  let params = params job.seed in
  match job.input with
  | Workloads.Batch { circuit; _ } ->
      Replica.Routed
        (Pipeline.transpile ~params ~trials:w.trials ~workers:w.workers ~router:job.router
           (w.device ()) circuit)
  | Workloads.Stream make ->
      Replica.Streamed
        (Pipeline.transpile_stream ~params ~window:Workloads.window ~router:job.router
           ~sink:ignore (w.device ()) (make ()))

let replica_job (w : Workloads.t) acc (job : Workloads.job) =
  let params = params job.seed in
  match job.input with
  | Workloads.Batch { circuit; _ } ->
      Replica.batch acc ~router:job.router ~params ~trials:w.trials ~workers:w.workers
        (w.device ()) circuit
  | Workloads.Stream make ->
      Replica.stream acc ~router:job.router ~params ~window:Workloads.window (w.device ()) make

(* input gates of a job: lowered size for batch jobs, gates pulled for streams *)
let gates (job : Workloads.job) out =
  match (job.input, out) with
  | Workloads.Batch { gates; _ }, _ -> gates
  | Workloads.Stream _, Replica.Streamed s -> s.sr_gates_in
  | Workloads.Stream _, Replica.Routed _ -> 0

let cx_depth = function
  | Replica.Routed r -> (r.cx_total, r.depth)
  | Replica.Streamed s -> (s.sr_cx_out, s.sr_depth_out)

(* set-up: input generation, device and distance construction, and one
   untimed warm-up of the smallest job (the first one among streams) *)
let setup ~workers ~small ~seed name =
  let w = Workloads.make ~workers ~small ~seed name in
  let size (j : Workloads.job) =
    match j.input with Workloads.Batch { gates; _ } -> gates | Workloads.Stream _ -> 0
  in
  let smallest = Array.fold_left (fun a j -> if size j < size a then j else a) w.jobs.(0) w.jobs in
  ignore (run_job w smallest);
  w

(* Whole passes until [seconds] have elapsed, at least [min].  Another
   pass starts only if it would end nearer the deadline than stopping now,
   so a run measures [seconds] give or take half a pass.  Returns the
   number of passes. *)
let repeat ~min ~seconds pass =
  let deadline = now () +. seconds in
  let rec go k =
    let start = now () in
    pass k;
    let t = now () in
    if k + 1 < min || t +. ((t -. start) /. 2.0) < deadline then go (k + 1) else k + 1
  in
  go 0

(* the process's peak resident set (VmHWM), in MB *)
let vm_hwm_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | Some line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
            | Some _ -> find ()
            | None -> None
          in
          find ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Input gates per second at each job's median time: the jobs' input
   gates over the sum of their median times.  A median per job keeps one
   slow run of one job from moving the whole figure, as it would move the
   pass it fell in. *)
let throughput (gates : int array) (ms : float list array) =
  let total = ref 0.0 in
  Array.iter (fun l -> total := !total +. Stats.median l) ms;
  float_of_int (Array.fold_left ( + ) 0 gates) /. (!total /. 1000.0)

(* each job timed in turn *)
type phase = {
  first : (Replica.output, string) result array;  (** the first pass's outputs *)
  gates : int array;  (** per job, input gates of its first-pass output *)
  ms : float list array;  (** per job, one calibrated time per pass *)
  raw_ms : float list;  (** every job run's uncalibrated wall time *)
  bad : int array;  (** per job, runs that raised or differed from the first pass *)
  passes : int;
  rss_mb : float;  (** peak RSS after set-up and the first pass *)
}

let timed ~min ~seconds (w : Workloads.t) c =
  let n = Array.length w.jobs in
  let first = Array.make n (Error "not run") and ms = Array.make n [] and bad = Array.make n 0 in
  let gates_in = Array.make n 0 and raw_ms = ref [] and rss_mb = ref 0.0 in
  let pass k =
    Array.iteri
      (fun i job ->
        let out, raw, scale = Calib.timed c (fun () -> run_job w job) in
        let out = Result.map_error Printexc.to_string out in
        if k = 0 then begin
          first.(i) <- out;
          Result.iter (fun o -> gates_in.(i) <- gates job o) out
        end;
        ms.(i) <- (raw *. scale) :: ms.(i);
        raw_ms := raw :: !raw_ms;
        match (out, first.(i)) with
        | Ok o, Ok o0 when cx_depth o = cx_depth o0 -> ()
        | _ -> bad.(i) <- bad.(i) + 1)
      w.jobs;
    if k = 0 then rss_mb := vm_hwm_mb ()
  in
  let passes = repeat ~min ~seconds pass in
  {
    first;
    gates = gates_in;
    ms = Array.map List.rev ms;
    raw_ms = !raw_ms;
    bad;
    passes;
    rss_mb = !rss_mb;
  }

let gate (w : Workloads.t) (first : (Replica.output, string) result array) =
  let g = Gate.create () in
  Array.iteri
    (fun i (job : Workloads.job) ->
      match (first.(i), job.input) with
      | Error e, _ -> Gate.fail g job.label e
      | Ok (Replica.Routed r), Workloads.Batch { circuit; _ } ->
          Gate.batch g ~coupling:(w.device ()) ~label:job.label ~original:circuit r
      | Ok (Replica.Streamed s), Workloads.Stream make ->
          Gate.stream g ~coupling:(w.device ()) ~label:job.label ~router:job.router
            ~params:(params job.seed) ~expected:s (make ())
      | Ok _, _ -> Gate.fail g job.label "output kind does not match the job")
    w.jobs;
  g

(* ---- end-to-end metrics ---- *)

let end_to_end ~setup_s (p : phase) =
  let outputs = List.filter_map Result.to_option (Array.to_list p.first) in
  let geomean f =
    Stats.geomean (List.map (fun o -> float_of_int (max 1 (f (cx_depth o)))) outputs)
  in
  [
    { name = "setup_s"; value = setup_s; unit_ = "s" };
    { name = "gates_per_s"; value = throughput p.gates p.ms; unit_ = "gates/s" };
    {
      name = "job_ms_geomean";
      value = Stats.geomean (Array.to_list (Array.map Stats.median p.ms));
      unit_ = "ms";
    };
    { name = "cx_geomean"; value = geomean fst; unit_ = "count" };
    { name = "depth_geomean"; value = geomean snd; unit_ = "count" };
    { name = "peak_rss_mb"; value = p.rss_mb; unit_ = "MB" };
  ]

(* ---- per-layer metrics ---- *)

(* self time per pass of the layers every workload runs *)
let layer_ms =
  [
    "qgate.lower";
    "topology.distmat";
    "qcircuit.dag";
    "qroute.find_layout";
    "qroute.route";
    "qroute.finalize";
  ]

let pre_stages =
  [ "peephole"; "optimize_1q_u"; "cancellation"; "unitary_synthesis"; "optimize_1q_u_2" ]

let post_stages =
  [ "peephole"; "cancellation"; "unitary_synthesis"; "basis"; "cancellation_2"; "optimize_1q_zsx" ]

(* Layers that some workload does not run (no optimization passes on
   streams, no generator inside batch jobs) are given as a share of all
   spanned self time, so that every [ms] metric is a measured time on every
   workload.  The stage names are those BENCHMARK.json declares, not read
   from the pipeline's stage lists, so the printed metric set stays the
   declared one. *)
let layer_pct =
  ("qcircuit.source" :: List.map (( ^ ) "qpasses.pre.") pre_stages)
  @ List.map (( ^ ) "qpasses.post.") post_stages

(* Qobs counters read from each traced job's collector tree *)
let counters =
  [
    "synth.blocks_considered";
    "synth.blocks_resynthesized";
    "synth2q.kak_decompositions";
    "cancellation.rounds";
    "cancellation.gates_cancelled";
    "commutation.cache_lookups";
    "commutation.cache_hits";
    "distmat.rows_materialized";
    "engine.swap_candidates_scored";
  ]

let nassc_counters = [ "nassc.c2q_bonus_evals"; "nassc.weyl_cache_hits"; "nassc.weyl_cache_misses" ]

let collect_obs acc (job : Workloads.job) root =
  let trace = Qobs.Trace.of_root root in
  let total c = Spans.count acc c (float_of_int (Qobs.Trace.counter_total trace c)) in
  List.iter total counters;
  if Workloads.is_nassc job.router then begin
    List.iter total nassc_counters;
    List.iter
      (fun col ->
        match List.assoc_opt "engine.predicted_cnot_savings" (Qobs.Collector.gauges col) with
        | Some v -> Spans.count acc "qroute.nassc.predicted_savings" v
        | None -> ())
      (Qobs.Trace.collectors trace)
  end

type traced = {
  totals : Spans.t;
  traced_passes : int;
  peak_resident : int;
  mismatched : string list;
  traced_ms : float list array;  (** per job, one calibrated time per traced pass *)
}

let traced ~seconds (w : Workloads.t) c refs =
  let totals = Spans.create () in
  let peak = ref 0 and mismatched = ref [] and ms = Array.make (Array.length w.jobs) [] in
  let pass _ =
    Array.iteri
      (fun i (job : Workloads.job) ->
        let acc = Spans.create () in
        let root = Qobs.Collector.create ~label:"e2e" () in
        let out, raw, scale =
          Calib.timed c (fun () -> Qobs.with_collector root (fun () -> replica_job w acc job))
        in
        ms.(i) <- (raw *. scale) :: ms.(i);
        collect_obs acc job root;
        Spans.merge ~scale ~into:totals acc;
        match (out, refs.(i)) with
        | Ok (Replica.Streamed s as out), Ok r when Replica.same out r ->
            peak := max !peak s.sr_peak_resident
        | Ok (Replica.Routed _ as out), Ok r when Replica.same out r -> ()
        | _ -> if not (List.mem job.label !mismatched) then mismatched := job.label :: !mismatched)
      w.jobs
  in
  let traced_passes = repeat ~min:1 ~seconds pass in
  {
    totals;
    traced_passes;
    peak_resident = !peak;
    mismatched = List.rev !mismatched;
    traced_ms = ms;
  }

let per_layer (t : traced) ~gates ~untraced_gates_per_s (g : Gate.t) =
  let per_pass v = v /. float_of_int t.traced_passes in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let c = Spans.get t.totals in
  let m name unit_ value = { name; value; unit_ } in
  let count name key = m name "count" (per_pass (c key)) in
  List.map (fun l -> m (l ^ ".ms") "ms" (per_pass (Spans.self_ms t.totals l))) layer_ms
  @ List.map
      (fun l ->
        m (l ^ ".pct") "%" (100.0 *. ratio (Spans.self_ms t.totals l) (Spans.total_ms t.totals)))
      layer_pct
  @ List.map (fun k -> count k k) [ "qpasses.pre.gates_out"; "qpasses.pre.cx_out" ]
  @ List.map
      (fun s ->
        let k = "qpasses.post." ^ s ^ ".cx_out" in
        count k k)
      post_stages
  @ [
      m "qpasses.synth.resynth_ratio" "ratio"
        (ratio (c "synth.blocks_resynthesized") (c "synth.blocks_considered"));
      count "qpasses.synth.kak_decompositions" "synth2q.kak_decompositions";
      count "qpasses.cancellation.rounds" "cancellation.rounds";
      count "qpasses.cancellation.gates_cancelled" "cancellation.gates_cancelled";
      m "qpasses.commutation.hit_ratio" "ratio"
        (ratio (c "commutation.cache_hits") (c "commutation.cache_lookups"));
      count "topology.distmat.rows_materialized" "distmat.rows_materialized";
      count "qroute.swaps" "qroute.swaps";
      count "qroute.routed_cx" "qroute.routed_cx";
      count "qroute.candidates_scored" "engine.swap_candidates_scored";
      m "qroute.stream.peak_resident" "count" (float_of_int t.peak_resident);
      count "qroute.nassc.bonus_evals" "nassc.c2q_bonus_evals";
      m "qroute.nassc.weyl_hit_ratio" "ratio"
        (ratio (c "nassc.weyl_cache_hits")
           (c "nassc.weyl_cache_hits" +. c "nassc.weyl_cache_misses"));
      count "qroute.nassc.predicted_savings" "qroute.nassc.predicted_savings";
      count "qroute.nassc.realized_savings" "qroute.nassc.realized_savings";
      m "qverify.unknown_ratio" "ratio" (ratio (float_of_int g.unknown) (float_of_int g.verified));
      m "trace.overhead_ratio" "ratio"
        (ratio (throughput gates t.traced_ms) untraced_gates_per_s);
    ]

(* ---- entry point ---- *)

let print_result ~workload ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "%s %s %s %s\n" workload m.name (J.number_to_string m.value) m.unit_)
    metrics;
  let metric m = (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]) in
  print_endline
    (J.serialize
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int failed));
            ("metrics", J.Obj (List.map metric metrics));
          ]))

let print_jobs ~workload (w : Workloads.t) c (p : phase) =
  Array.iteri
    (fun i (job : Workloads.job) ->
      let cx, depth = match p.first.(i) with Ok o -> cx_depth o | Error _ -> (0, 0) in
      Printf.printf "%s job %-40s %10.2f ms  gates %6d  cx %7d  depth %7d\n" workload job.label
        (Stats.median p.ms.(i)) p.gates.(i) cx depth)
    w.jobs;
  let samples = List.concat (Array.to_list p.ms) in
  let n = List.length samples in
  Printf.printf "%s passes %d, %d jobs per pass\n" workload p.passes (Array.length w.jobs);
  Printf.printf "%s uncalibrated job_ms_p50 %s ms; kernel median %.3f ms (reference %.1f)\n"
    workload
    (J.number_to_string (Stats.median p.raw_ms))
    (Stats.median c.Calib.kernels) Calib.reference_ms;
  let outputs = List.filter_map Result.to_option (Array.to_list p.first) in
  Printf.printf "%s cx_total %d, depth_total %d\n" workload
    (List.fold_left (fun a o -> a + fst (cx_depth o)) 0 outputs)
    (List.fold_left (fun a o -> a + snd (cx_depth o)) 0 outputs);
  List.iter
    (fun q ->
      let beyond = n - int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
      Printf.printf "%s job_ms_p%.0f %s ms (%d of %d samples beyond; not gated)\n" workload q
        (J.number_to_string (Stats.percentile q samples)) beyond n)
    [ 50.0; 90.0; 99.0 ]

let main ~workers ~small ~workload ~seed ~seconds ~trace () =
  let c = Calib.create ~domains:workers in
  let setup_once () =
    match Calib.timed c (fun () -> setup ~workers ~small ~seed workload) with
    | Ok w, raw, scale -> (w, raw *. scale /. 1000.0)
    | Error e, _, _ -> raise e
  in
  (* only the last set-up is kept: each earlier one is dropped and
     collected before the next, so the peak RSS holds a single set-up *)
  let earlier =
    List.init (setups - 1) (fun _ ->
        let t = snd (setup_once ()) in
        Gc.full_major ();
        t)
  in
  let w, last = setup_once () in
  let setup_s = Stats.median (last :: earlier) in
  let p =
    if trace then timed ~min:1 ~seconds:(seconds /. 2.0) w c
    else timed ~min:(if small then 1 else min_passes) ~seconds w c
  in
  let t = if trace then Some (traced ~seconds:(seconds /. 2.0) w c p.first) else None in
  let t0 = now () in
  let g = gate w p.first in
  Printf.printf "%s gate %.2f s: %d outputs verified (%d unknown) in %.0f ms\n" workload
    (now () -. t0) g.verified g.unknown g.verify_ms;
  List.iter
    (fun (l, why) -> Printf.printf "%s FAILED %s: %s\n" workload l why)
    (List.rev g.failures);
  (* a job's runs all fail when its output fails the gate *)
  let failed = ref 0 in
  Array.iteri
    (fun i (job : Workloads.job) ->
      failed := !failed + if Gate.failed g job.label then p.passes else p.bad.(i))
    w.jobs;
  let attempted = p.passes * Array.length w.jobs in
  let correct, metrics =
    match t with
    | None ->
        print_jobs ~workload w c p;
        (true, end_to_end ~setup_s p)
    | Some t ->
        Printf.printf "%s traced passes %d\n" workload t.traced_passes;
        List.iter (fun l -> Printf.printf "%s REPLICA MISMATCH %s\n" workload l) t.mismatched;
        ( t.mismatched = [],
          per_layer t ~gates:p.gates ~untraced_gates_per_s:(throughput p.gates p.ms) g )
  in
  let correct = correct && !failed = 0 in
  print_result ~workload ~correct ~attempted ~failed:!failed metrics;
  if correct then 0 else 1
