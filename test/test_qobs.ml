(* The observability layer: span-tree well-nestedness, counter consistency
   (cache hits + misses = lookups), zero recording when disabled, and the
   headline acceptance property - the exported trace is byte-identical
   whatever the worker count. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let find name assoc =
  match List.assoc_opt name assoc with
  | Some v -> v
  | None -> Alcotest.failf "missing entry %s" name

(* ---------- spans ---------- *)

let test_span_tree_well_nested () =
  let root = Qobs.Collector.create ~label:"test" () in
  Qobs.with_collector root (fun () ->
      Qobs.span "a" (fun () ->
          Qobs.span "b" (fun () -> ());
          Qobs.span "c" (fun () -> Qobs.span "d" (fun () -> ())));
      Qobs.span "e" (fun () -> ()));
  checki "all spans closed" 0 (Qobs.Collector.open_spans root);
  let spans = Qobs.Collector.spans root in
  checki "five spans" 5 (List.length spans);
  List.iteri
    (fun i (s : Qobs.Collector.span_rec) -> checki "preorder seq" i s.sp_seq)
    spans;
  let by_seq seq = List.nth spans seq in
  List.iter
    (fun (s : Qobs.Collector.span_rec) ->
      if s.sp_parent = -1 then checki "root depth" 0 s.sp_depth
      else begin
        check "parent opened before child" true (s.sp_parent < s.sp_seq);
        checki "depth is parent + 1" ((by_seq s.sp_parent).sp_depth + 1) s.sp_depth
      end)
    spans;
  let name seq = (by_seq seq).sp_name in
  let parent seq = (by_seq seq).sp_parent in
  check "a is a root" true (parent 0 = -1 && name 0 = "a");
  check "b under a" true (name 1 = "b" && name (parent 1) = "a");
  check "d under c under a" true
    (name 3 = "d" && name (parent 3) = "c" && name (parent (parent 3)) = "a");
  check "e is a root" true (name 4 = "e" && parent 4 = -1)

let test_span_closes_on_exception () =
  let root = Qobs.Collector.create () in
  (try
     Qobs.with_collector root (fun () ->
         Qobs.span "outer" (fun () -> Qobs.span "boom" (fun () -> failwith "boom")))
   with Failure _ -> ());
  checki "no span left open" 0 (Qobs.Collector.open_spans root);
  checki "both spans recorded" 2 (List.length (Qobs.Collector.spans root))

(* ---------- counters and gauges ---------- *)

let c_test = Qobs.counter "test.counter"
let g_test = Qobs.gauge "test.gauge"

let test_disabled_records_nothing () =
  check "inactive outside with_collector" false (Qobs.active ());
  (* probes must be no-ops, not crashes *)
  Qobs.incr c_test;
  Qobs.add c_test 41;
  Qobs.gauge_set g_test 3.0;
  Qobs.span "ignored" (fun () -> ());
  let root = Qobs.Collector.create () in
  Qobs.with_collector root (fun () -> check "active inside" true (Qobs.active ()));
  checki "no spans recorded while uninstalled" 0 (List.length (Qobs.Collector.spans root));
  checki "counter untouched" 0 (find "test.counter" (Qobs.Collector.counters root));
  check "gauge untouched" true
    (List.assoc_opt "test.gauge" (Qobs.Collector.gauges root) = None)

let test_counter_and_gauge_recording () =
  let root = Qobs.Collector.create () in
  Qobs.with_collector root (fun () ->
      Qobs.incr c_test;
      Qobs.add c_test 9;
      Qobs.gauge_set g_test 2.0;
      Qobs.gauge_add g_test 0.5);
  checki "incr + add" 10 (find "test.counter" (Qobs.Collector.counters root));
  Alcotest.(check (float 1e-12)) "set + add" 2.5 (find "test.gauge" (Qobs.Collector.gauges root))

(* ---------- consistency of the real pipeline counters ---------- *)

let transpile_traced ?(workers = 1) () =
  let c = Qbench.Generators.qft 6 in
  let coupling = Topology.Devices.linear 8 in
  let params = { Qroute.Engine.default_params with seed = 11 } in
  let root = Qobs.Collector.create ~label:"main" () in
  let r =
    Qobs.with_collector root (fun () ->
        Qroute.Pipeline.transpile ~params ~trials:4 ~workers
          ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config)
          coupling c)
  in
  (root, r)

let test_cache_counters_consistent () =
  let root, _ = transpile_traced () in
  let totals = Qobs.Trace.counters_total (Qobs.Trace.of_root root) in
  let lookups = find "commutation.cache_lookups" totals in
  let hits = find "commutation.cache_hits" totals in
  let misses = find "commutation.cache_misses" totals in
  check "cache exercised" true (lookups > 0);
  checki "hits + misses = lookups" lookups (hits + misses)

let test_engine_counters_present () =
  let root, r = transpile_traced () in
  let totals = Qobs.Trace.counters_total (Qobs.Trace.of_root root) in
  check "candidates scored" true (find "engine.swap_candidates_scored" totals > 0);
  check "h_basic evaluated" true (find "engine.h_basic_evals" totals > 0);
  checki "swaps counted = reported swaps (best trial <= total)" r.n_swaps
    (match
       List.find_opt (fun (s : Qroute.Trials.stat) -> s.cx_total = r.cx_total) r.trial_stats
     with
    | Some s -> s.n_swaps
    | None -> -1);
  checki "one ok outcome per trial" 4 (find "trials.ok" totals);
  checki "no failed trials" 0 (find "trials.failed" totals)

(* ---------- determinism across worker counts ---------- *)

let test_trace_identical_across_workers () =
  let jsonl workers =
    let root, _ = transpile_traced ~workers () in
    Qobs.Trace.to_jsonl ~times:false (Qobs.Trace.of_root root)
  in
  let a = jsonl 1 and b = jsonl 4 in
  check "trace bytes identical, workers 1 vs 4" true (String.equal a b);
  check "trace non-trivial" true (String.length a > 1000)

let test_trial_children_in_order () =
  let root, _ = transpile_traced ~workers:4 () in
  let trials =
    List.filter_map Qobs.Collector.trial (Qobs.Collector.children root)
  in
  check "children merged in trial order" true (trials = [ 0; 1; 2; 3 ])

(* ---------- realized vs predicted savings gauges ---------- *)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* ---------- histograms ---------- *)

let samples seed n =
  let state = ref seed in
  List.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      float_of_int !state /. 1e6)

let hist_of xs =
  let h = Qobs.Hist.create () in
  List.iter (Qobs.Hist.observe h) xs;
  h

let test_hist_merge_associative () =
  let a = hist_of (samples 1 300)
  and b = hist_of (samples 2 500)
  and c = hist_of (samples 3 200) in
  let ab_c = Qobs.Hist.merge (Qobs.Hist.merge a b) c in
  let a_bc = Qobs.Hist.merge a (Qobs.Hist.merge b c) in
  check "merge associative" true (Qobs.Hist.equal ab_c a_bc);
  check "merge commutative" true
    (Qobs.Hist.equal (Qobs.Hist.merge a b) (Qobs.Hist.merge b a));
  checki "counts add" 1000 (Qobs.Hist.count ab_c);
  check "originals untouched" true (Qobs.Hist.count a = 300 && Qobs.Hist.count b = 500)

let test_hist_percentiles_sane () =
  let h = hist_of (List.init 1000 (fun i -> float_of_int (i + 1))) in
  let p50 = Qobs.Hist.percentile h 50.0 in
  let p99 = Qobs.Hist.percentile h 99.0 in
  (* log-bucketed: the representative is within one bucket ratio (2^1/4) *)
  check "p50 within a bucket of 500" true (p50 >= 500.0 /. 1.2 && p50 <= 500.0 *. 1.2);
  check "p99 within a bucket of 990" true (p99 >= 990.0 /. 1.2 && p99 <= 990.0 *. 1.2);
  check "p0 clamped to min" true (Qobs.Hist.percentile h 0.0 >= 1.0);
  check "p100 clamped to max" true (Qobs.Hist.percentile h 100.0 <= 1000.0);
  check "monotone" true (p50 <= p99)

let test_hist_percentile_edges () =
  let checkf = Alcotest.(check (float 1e-9)) in
  (* empty: every percentile is nan, min/max are the identity elements *)
  let empty = Qobs.Hist.create () in
  check "empty p50 is nan" true (Float.is_nan (Qobs.Hist.percentile empty 50.0));
  check "empty p0 is nan" true (Float.is_nan (Qobs.Hist.percentile empty 0.0));
  check "empty p100 is nan" true (Float.is_nan (Qobs.Hist.percentile empty 100.0));
  (* single observation: reports itself everywhere *)
  let one = hist_of [ 42.0 ] in
  List.iter
    (fun p -> checkf "single obs at every p" 42.0 (Qobs.Hist.percentile one p))
    [ 0.0; 1.0; 50.0; 99.0; 100.0 ];
  (* exact endpoints: p<=0 is min_value, p>=100 is max_value, out-of-range
     clamps instead of crashing, NaN p answers nan *)
  let h = hist_of [ 1.0; 10.0; 100.0 ] in
  checkf "p0 = min" (Qobs.Hist.min_value h) (Qobs.Hist.percentile h 0.0);
  checkf "p100 = max" (Qobs.Hist.max_value h) (Qobs.Hist.percentile h 100.0);
  checkf "p<0 clamps to min" (Qobs.Hist.min_value h) (Qobs.Hist.percentile h (-7.0));
  checkf "p>100 clamps to max" (Qobs.Hist.max_value h) (Qobs.Hist.percentile h 250.0);
  check "nan p is nan" true (Float.is_nan (Qobs.Hist.percentile h Float.nan))

(* pp_summary renders counters, gauges and histograms in name order so two
   runs (or two readers) always see the same layout *)
let test_pp_summary_deterministic_order () =
  let ga = Qobs.gauge "test.pp.alpha" in
  let gz = Qobs.gauge "test.pp.zeta" in
  let gm = Qobs.gauge "test.pp.middle" in
  let root = Qobs.Collector.create ~label:"pp" () in
  Qobs.with_collector root (fun () ->
      (* written in non-sorted order on purpose *)
      Qobs.gauge_set gz 3.0;
      Qobs.gauge_set ga 1.0;
      Qobs.gauge_set gm 2.0);
  let render () =
    let buf = Buffer.create 256 in
    let fmt = Format.formatter_of_buffer buf in
    Qobs.Trace.pp_summary fmt (Qobs.Trace.of_root root);
    Format.pp_print_flush fmt ();
    Buffer.contents buf
  in
  let out = render () in
  let pos affix =
    let n = String.length affix in
    let rec find i =
      if i + n > String.length out then Alcotest.failf "missing %s in summary" affix
      else if String.sub out i n = affix then i
      else find (i + 1)
    in
    find 0
  in
  check "gauges sorted by name" true
    (pos "test.pp.alpha" < pos "test.pp.middle" && pos "test.pp.middle" < pos "test.pp.zeta");
  check "summary stable across renders" true (String.equal out (render ()))

(* the engine histograms only fire under a recording collector; there, the
   exported trace (spans + counters + hist lines) must stay byte-identical
   whatever the worker count *)
let transpile_recorded ?(workers = 1) () =
  let c = Qbench.Generators.qft 6 in
  let coupling = Topology.Devices.linear 8 in
  let params = { Qroute.Engine.default_params with seed = 11 } in
  let root = Qobs.Collector.create ~label:"main" ~record:true () in
  let r =
    Qobs.with_collector root (fun () ->
        Qroute.Pipeline.transpile ~params ~trials:4 ~workers
          ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config)
          coupling c)
  in
  (root, r)

let test_hists_identical_across_workers () =
  let jsonl workers =
    let root, _ = transpile_recorded ~workers () in
    Qobs.Trace.to_jsonl (Qobs.Trace.of_root root)
  in
  let a = jsonl 1 and b = jsonl 4 in
  check "hist lines present under recorder" true (contains ~affix:"\"type\":\"hist\"" a);
  check "engine.candidate_h exported" true (contains ~affix:"engine.candidate_h" a);
  check "trace + hists identical, workers 1 vs 4" true (String.equal a b)

let test_savings_gauges_exported () =
  let root, _ = transpile_traced () in
  let jsonl = Qobs.Trace.to_jsonl (Qobs.Trace.of_root root) in
  check "predicted savings exported" true
    (contains ~affix:"engine.predicted_cnot_savings" jsonl);
  check "realized savings exported" true
    (contains ~affix:"trial.realized_cnot_savings" jsonl);
  check "per-pass spans exported" true (contains ~affix:"\"pass.cancellation\"" jsonl);
  (* each exported span line's collector, preorder index, parent index and
     name, for the cancellation spans and the passes they nest under *)
  let spans =
    List.filter_map
      (fun line ->
        try
          Scanf.sscanf line
            ("{\"type\":\"span\",\"trial\":%[^,],\"seq\":%d,\"parent\":%d,"
           ^^ "\"depth\":%d,\"name\":\"%[^\"]\"")
            (fun trial seq parent _ name -> Some ((trial, seq), (trial, parent), name))
        with Scanf.Scan_failure _ | End_of_file -> None)
      (String.split_on_char '\n' jsonl)
  in
  let name_of key = List.find_map (fun (k, _, name) -> if k = key then Some name else None) spans in
  List.iter
    (fun inner ->
      let nested = List.filter (fun (_, _, name) -> name = inner) spans in
      check (inner ^ " exported") true (nested <> []);
      check (inner ^ " nests under pass.cancellation") true
        (List.for_all (fun (_, parent, _) -> name_of parent = Some "pass.cancellation") nested))
    [ "cancellation.analyze"; "cancellation.round"; "cancellation.rescan"; "cancellation.emit" ];
  check "no timing fields by default" false (contains ~affix:"wall_ms" jsonl)

let () =
  Alcotest.run "qobs"
    [
      ( "spans",
        [
          Alcotest.test_case "well-nested tree" `Quick test_span_tree_well_nested;
          Alcotest.test_case "closes on exception" `Quick test_span_closes_on_exception;
        ] );
      ( "counters",
        [
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "counter and gauge recording" `Quick
            test_counter_and_gauge_recording;
          Alcotest.test_case "cache hits + misses = lookups" `Quick
            test_cache_counters_consistent;
          Alcotest.test_case "engine counters present" `Quick test_engine_counters_present;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "trace identical workers 1 vs 4" `Quick
            test_trace_identical_across_workers;
          Alcotest.test_case "children merged in trial order" `Quick
            test_trial_children_in_order;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "merge associative and commutative" `Quick
            test_hist_merge_associative;
          Alcotest.test_case "percentiles sane" `Quick test_hist_percentiles_sane;
          Alcotest.test_case "percentile edge cases" `Quick test_hist_percentile_edges;
          Alcotest.test_case "hists identical workers 1 vs 4" `Quick
            test_hists_identical_across_workers;
        ] );
      ( "export",
        [
          Alcotest.test_case "savings gauges exported" `Quick test_savings_gauges_exported;
          Alcotest.test_case "pp_summary deterministic order" `Quick
            test_pp_summary_deterministic_order;
        ] );
    ]
