(* The Qtel observability layer: exposition round-trips against the Qobs
   registry and survives its own linter, wide events are byte-identical
   across worker counts, and the resource sampler samples and attaches its
   gauges. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let coupling = Topology.Devices.montreal
let circuit () = (Qbench.Suite.find "Grover 4-qubits").build ()

(* one traced + recorded transpile; recording turns on the engine's
   deterministic histograms, so the trace exercises every metric kind *)
let traced_transpile ?(trials = 2) ?(workers = 1) () =
  let root = Qobs.Collector.create ~label:"test" ~record:true () in
  let params = { Qroute.Engine.default_params with seed = 7 } in
  let r =
    Qobs.with_collector root (fun () ->
        Qroute.Pipeline.transpile ~params ~trials ~workers
          ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config) coupling
          (circuit ()))
  in
  (r, Qobs.Trace.of_root root, root)

(* ---------- metric names ---------- *)

let test_metric_name () =
  checks "dots become underscores" "nassc_engine_swaps_emitted"
    (Qtel.Expose.metric_name "engine.swaps_emitted");
  checks "custom prefix" "x_a_b" (Qtel.Expose.metric_name ~prefix:"x_" "a-b")

(* ---------- exposition round-trip ---------- *)

let test_expose_roundtrip () =
  let _, trace, _ = traced_transpile () in
  let page = Qtel.Expose.to_string trace in
  check "page is terminated" true
    (String.length page > 6 && String.sub page (String.length page - 6) 6 = "# EOF\n");
  (* the exporter's own output must satisfy the exporter's own linter *)
  (match Qtel.Promlint.lint page with
  | [] -> ()
  | e :: _ -> Alcotest.failf "lint error on own page: line %d: %s" e.line e.msg);
  let series = Qtel.Promlint.parse_series page in
  let value name labels =
    match
      List.find_opt (fun (n, l, _) -> n = name && l = labels) series
    with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "series %s missing from page" name
  in
  (* every registry counter total survives the text round-trip *)
  let counters = Qobs.Trace.counters_total trace in
  check "trace has counters" true (counters <> []);
  check "a cache counter fired" true
    (Qobs.Trace.counter_total trace "engine.swap_candidates_scored" > 0);
  List.iter
    (fun (name, total) ->
      let m = Qtel.Expose.metric_name name ^ "_total" in
      check (m ^ " round-trips") true (value m [] = float_of_int total))
    counters;
  (* every histogram's _count, _sum and +Inf bucket line up with Hist *)
  let hists = Qobs.Trace.histograms_total trace in
  check "recorder enabled the engine histograms" true
    (List.mem_assoc "engine.front_size" hists);
  List.iter
    (fun (name, h) ->
      let m = Qtel.Expose.metric_name name in
      let count = float_of_int (Qobs.Hist.count h) in
      check (m ^ "_count") true (value (m ^ "_count") [] = count);
      check (m ^ " +Inf bucket = count") true
        (value (m ^ "_bucket") [ ("le", "+Inf") ] = count);
      check (m ^ "_sum") true
        (Float.abs (value (m ^ "_sum") [] -. Qobs.Hist.sum h) < 1e-9))
    hists

let test_expose_gauges_labelled_by_trial () =
  let _, trace, _ = traced_transpile ~trials:2 () in
  let page = Qtel.Expose.to_string trace in
  let series = Qtel.Promlint.parse_series page in
  (* per-trial gauges (e.g. trial.cx_total) appear once per trial label *)
  let trial_series =
    List.filter
      (fun (n, l, _) -> n = "nassc_trial_cx_total" && List.mem_assoc "trial" l)
      series
  in
  checki "one series per trial" 2 (List.length trial_series)

(* ---------- promlint negatives ---------- *)

let expect_errors name page =
  check name true (Qtel.Promlint.lint page <> [])

let test_promlint_catches () =
  expect_errors "missing TYPE" "# HELP m help\nm 1\n";
  expect_errors "missing HELP" "# TYPE m counter\nm 1\n";
  expect_errors "bad metric name"
    "# HELP bad-name h\n# TYPE bad-name counter\nbad-name 1\n";
  expect_errors "unknown kind" "# HELP m h\n# TYPE m exotic\nm 1\n";
  expect_errors "duplicate TYPE"
    "# HELP m h\n# TYPE m counter\n# TYPE m counter\nm 1\n";
  expect_errors "duplicate series" "# HELP m h\n# TYPE m counter\nm 1\nm 2\n";
  expect_errors "unparsable value" "# HELP m h\n# TYPE m counter\nm pretzel\n";
  expect_errors "non-cumulative histogram"
    "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
     h_bucket{le=\"+Inf\"} 5\nh_sum 4\nh_count 5\n";
  expect_errors "+Inf <> count"
    "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 4\nh_count 5\n";
  expect_errors "histogram without +Inf"
    "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 4\nh_count 5\n";
  checki "clean page is clean" 0
    (List.length (Qtel.Promlint.lint "# HELP m h\n# TYPE m counter\nm 1\n# EOF\n"))

(* ---------- wide events ---------- *)

let wide_event ~workers () =
  let r, trace, root = traced_transpile ~trials:4 ~workers () in
  let ev =
    Qtel.Wideevent.build ~label:"ghz" ~router:"nassc" ~topology:"montreal" ~trials:4
      ~workers ~seed:7 ~original:(circuit ()) ~trace
      ~recorder:(Qobs.Recorder.totals root) ~result:r ()
  in
  ev

let test_wide_event_deterministic_across_workers () =
  let j1 = Qtel.Wideevent.to_json (wide_event ~workers:1 ()) in
  let j4 = Qtel.Wideevent.to_json (wide_event ~workers:4 ()) in
  checks "workers 1 vs 4 byte-identical" j1 j4;
  (* the json is one object with the deterministic core only *)
  check "no rt object by default" true
    (not
       (String.length j1 > 5
       && List.exists
            (fun i -> String.sub j1 i 5 = "\"rt\":")
            (List.init (String.length j1 - 5) Fun.id)))

let test_wide_event_times_adds_rt () =
  let j = Qtel.Wideevent.to_json ~times:true (wide_event ~workers:2 ()) in
  let contains hay needle =
    let nl = String.length needle in
    List.exists
      (fun i -> String.sub hay i nl = needle)
      (List.init (String.length hay - nl + 1) Fun.id)
  in
  check "rt object present" true (contains j "\"rt\":");
  check "workers only inside rt" true (contains j "\"workers\":");
  check "stage durations present" true (contains j "\"stage_ms\":")

let test_wide_event_parses_and_counts () =
  let j = Qtel.Wideevent.to_json (wide_event ~workers:2 ()) in
  let open Qbench.Jsonlite in
  let v = of_string j in
  check "kind" true (Option.bind (member "kind" v) to_string = Some "wide_event");
  checki "trials_run" 4
    (Option.value ~default:(-1) (Option.bind (member "trials_run" v) to_int));
  checki "trials_failed" 0
    (Option.value ~default:(-1) (Option.bind (member "trials_failed" v) to_int));
  check "has recorder totals" true (member "recorder" v <> None);
  check "has cache hit rate" true (member "weyl_cache_hit_rate" v <> None)

(* ---------- sampler ---------- *)

let test_sampler_runs_and_attaches () =
  let s = Qtel.Sampler.start ~interval_ms:2.0 () in
  (* do a little real work so GC counters move *)
  let _, _, _ = traced_transpile ~trials:1 () in
  Qtel.Sampler.stop s;
  let samples = Qtel.Sampler.samples s in
  check "baseline + final samples retained" true (List.length samples >= 2);
  List.iter
    (fun (x : Qtel.Sampler.sample) -> check "time monotone-ish" true (x.t_s >= 0.0))
    samples;
  let c = Qobs.Collector.create ~label:"sampler" () in
  Qtel.Sampler.attach s c;
  let gauges = Qobs.Collector.gauges c in
  check "qtel.samples gauge" true (List.mem_assoc "qtel.samples" gauges);
  check "qtel.peak_rss_kb gauge" true (List.mem_assoc "qtel.peak_rss_kb" gauges);
  check "sample count matches gauge" true
    (List.assoc "qtel.samples" gauges = float_of_int (List.length samples));
  (* stop is idempotent *)
  Qtel.Sampler.stop s

(* ---------- trace stability: qtel features off => historical bytes ---------- *)

let deterministic_trace () =
  let root = Qobs.Collector.create ~label:"test" () in
  let params = { Qroute.Engine.default_params with seed = 7 } in
  let _ =
    Qobs.with_collector root (fun () ->
        Qroute.Pipeline.transpile ~params ~trials:2 ~workers:2
          ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config) coupling
          (circuit ()))
  in
  Qobs.Trace.to_jsonl (Qobs.Trace.of_root root)

let contains hay needle =
  let nl = String.length needle in
  String.length hay >= nl
  && List.exists
       (fun i -> String.sub hay i nl = needle)
       (List.init (String.length hay - nl + 1) Fun.id)

let test_extended_metrics_gated () =
  check "extended metrics default off" true (not (Qobs.extended_metrics_enabled ()));
  let plain = deterministic_trace () in
  check "no extended pipeline gauges by default" true
    (not (contains plain "pipeline.gates_in"));
  Qobs.set_extended_metrics true;
  Fun.protect ~finally:(fun () -> Qobs.set_extended_metrics false) @@ fun () ->
  let extended = deterministic_trace () in
  check "extended gauges present when opted in" true
    (contains extended "pipeline.gates_in");
  check "extended gauges deterministic too" true
    (String.equal extended (deterministic_trace ()))

let test_trace_bytes_stable_across_runs () =
  checks "same run, same bytes" (deterministic_trace ()) (deterministic_trace ())

(* --metrics reads the same collectors --trace exports: rendering the page
   must not perturb the trace bytes, and vice versa *)
let test_expose_does_not_perturb_trace () =
  let _, trace, _ = traced_transpile () in
  let before = Qobs.Trace.to_jsonl trace in
  let page1 = Qtel.Expose.to_string trace in
  let after = Qobs.Trace.to_jsonl trace in
  checks "trace bytes unchanged by exposition" before after;
  checks "page bytes unchanged by trace export" page1 (Qtel.Expose.to_string trace)

let () =
  Alcotest.run "qtel"
    [
      ( "expose",
        [
          Alcotest.test_case "metric_name" `Quick test_metric_name;
          Alcotest.test_case "roundtrip vs registry" `Quick test_expose_roundtrip;
          Alcotest.test_case "per-trial gauge labels" `Quick
            test_expose_gauges_labelled_by_trial;
        ] );
      ("promlint", [ Alcotest.test_case "catches violations" `Quick test_promlint_catches ]);
      ( "wide-events",
        [
          Alcotest.test_case "byte-identical across workers" `Quick
            test_wide_event_deterministic_across_workers;
          Alcotest.test_case "times adds rt" `Quick test_wide_event_times_adds_rt;
          Alcotest.test_case "parses with expected fields" `Quick
            test_wide_event_parses_and_counts;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "runs and attaches" `Quick test_sampler_runs_and_attaches;
        ] );
      ( "trace-stability",
        [
          Alcotest.test_case "extended gauges gated" `Quick test_extended_metrics_gated;
          Alcotest.test_case "bytes stable across runs" `Quick
            test_trace_bytes_stable_across_runs;
          Alcotest.test_case "exposition does not perturb trace" `Quick
            test_expose_does_not_perturb_trace;
        ] );
    ]
