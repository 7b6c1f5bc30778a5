(* The routing flight recorder: the decision trail is deterministic across
   worker counts for a fixed seed, every chosen SWAP appears in its own
   recorded candidate set (all routers, several topologies), the nassc
   summary carries realized savings, recording follows the collector (per
   trial, and not inside [Recorder.without]), and without a recording
   collector the pipeline output is identical to an unrecorded run. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let nassc_router = Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config

let transpile ?collector ?(workers = 1) ?(trials = 1) ?(router = nassc_router) coupling
    circuit =
  let params = { Qroute.Engine.default_params with seed = 11 } in
  let run () =
    Qroute.Pipeline.transpile ~params ~trials ~workers ~router coupling circuit
  in
  match collector with
  | None -> run ()
  | Some c -> Qobs.with_collector c run

let recording () = Qobs.Collector.create ~label:"main" ~record:true ()
let norm (a, b) = (min a b, max a b)

let contains affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

(* ---------- determinism ---------- *)

let test_jsonl_identical_across_workers () =
  let jsonl workers =
    let root = recording () in
    ignore
      (transpile ~collector:root ~workers ~trials:4 (Topology.Devices.linear 8)
         (Qbench.Generators.qft 6));
    Qobs.Recorder.to_jsonl root
  in
  let a = jsonl 1 and b = jsonl 4 in
  check "recorder jsonl identical, workers 1 vs 4" true (String.equal a b);
  check "non-trivial" true (String.length a > 1000)

(* the per-trial records are exported in trial order: the trial_summary
   lines of a 4-worker run name trials 0..3 in sequence *)
let test_children_in_trial_order () =
  let root = recording () in
  ignore
    (transpile ~collector:root ~workers:4 ~trials:4 (Topology.Devices.linear 8)
       (Qbench.Generators.qft 6));
  let trials =
    String.split_on_char '\n' (Qobs.Recorder.to_jsonl root)
    |> List.filter_map (fun line ->
           if line = "" then None
           else
             let v = Qbench.Jsonlite.of_string line in
             match Qbench.Jsonlite.(Option.bind (member "type" v) to_string) with
             | Some "trial_summary" -> Qbench.Jsonlite.(Option.bind (member "trial" v) to_int)
             | _ -> None)
  in
  check "children merged in trial order" true (trials = [ 0; 1; 2; 3 ])

(* ---------- the chosen SWAP is always a recorded candidate ---------- *)

let routers =
  Qroute.Pipeline.select_routers [ "sabre"; "nassc"; "astar"; "sabre-ha"; "nassc-ha" ]

let topologies =
  [
    ("linear 8", Topology.Devices.linear 8);
    ("ring 8", Topology.Devices.ring 8);
    ("grid 3x3", Topology.Devices.grid 3 3);
    ("montreal", Topology.Devices.montreal);
  ]

let test_chosen_among_candidates () =
  let circuit = Qbench.Generators.qft 6 in
  let some_steps = ref 0 in
  List.iter
    (fun (rname, router) ->
      List.iter
        (fun (tname, coupling) ->
          let root = recording () in
          ignore (transpile ~collector:root ~router coupling circuit);
          List.iter
            (fun (s : Qobs.Recorder.step) ->
              incr some_steps;
              let cands =
                List.map
                  (fun (c : Qobs.Recorder.candidate) -> norm (c.cd.p1, c.cd.p2))
                  s.st_candidates
              in
              check
                (Printf.sprintf "%s/%s: chosen in candidates (step %d)" rname tname
                   s.st_seq)
                true
                (List.mem (norm s.st_chosen) cands);
              check
                (Printf.sprintf "%s/%s: candidates non-empty" rname tname)
                true (cands <> []);
              check
                (Printf.sprintf "%s/%s: router label" rname tname)
                true
                (s.st_router = rname || s.st_router = String.sub rname 0 5))
            (Qobs.Recorder.steps root))
        topologies)
    routers;
  check "swept a non-trivial number of steps" true (!some_steps > 100)

(* ---------- summary / totals ---------- *)

let test_nassc_summary_populated () =
  let root = recording () in
  ignore
    (transpile ~collector:root ~trials:2 (Topology.Devices.linear 8)
       (Qbench.Generators.qft 6));
  let t = Qobs.Recorder.totals root in
  checki "one summary per trial" 2 t.Qobs.Recorder.trials_summarized;
  check "steps recorded" true (t.steps > 0);
  check "candidates recorded" true (t.candidates >= t.steps);
  check "cx_routed positive" true (t.cx_routed > 0);
  check "realized = routed - final" true (t.realized = t.cx_routed - t.cx_final);
  check "jsonl carries trial_summary" true
    (contains "trial_summary" (Qobs.Recorder.to_jsonl root))

(* ---------- recording follows the collector ---------- *)

let one_step () =
  Qobs.Recorder.record_step ~front:1
    ~candidates:[ { Qobs.Recorder.p1 = 0; p2 = 1; h_basic = 0.; h_lookahead = 0.; h = 0.; bonus = 0. } ]
    ~chosen:(0, 1) ~chosen_bonus:0.0 ()

let c_inside = Qobs.counter "test.recorder.inside_without"

let test_without_keeps_spans_and_counters () =
  let root = recording () in
  Qobs.with_collector root (fun () ->
      Qobs.Recorder.without (fun () ->
          check "not recording inside without" false (Qobs.Recorder.active ());
          Qobs.span "test.inside_without" (fun () ->
              one_step ();
              Qobs.incr c_inside));
      check "recording again after without" true (Qobs.Recorder.active ());
      one_step ());
  checki "only the step outside without recorded" 1
    (List.length (Qobs.Recorder.steps root));
  check "span inside without collected" true
    (List.exists
       (fun (s : Qobs.Collector.span_rec) -> s.sp_name = "test.inside_without")
       (Qobs.Collector.spans root));
  checki "counter inside without collected" 1
    (Qobs.Trace.counter_total (Qobs.Trace.of_root root) "test.recorder.inside_without")

let test_trials_follow_parent () =
  let root = Qobs.Collector.create ~label:"main" () in
  let active = Array.make 3 true in
  ignore
    (Qobs.with_collector root (fun () ->
         Qroute.Trials.run ~workers:2 ~n:3 ~base_seed:1
           ~measure:(fun () -> (0, 0, 0))
           (fun ~trial ~seed:_ ->
             active.(trial) <- Qobs.Recorder.active ();
             one_step ())));
  check "no trial records under a non-recording parent" false (Array.exists Fun.id active);
  checki "one child collector per trial" 3 (List.length (Qobs.Collector.children root));
  check "no steps recorded" true (Qobs.Recorder.steps root = [])

(* ---------- disabled-recorder compatibility ---------- *)

let test_disabled_identical_results () =
  check "not recording without a collector" false (Qobs.Recorder.active ());
  Qobs.with_collector (Qobs.Collector.create ()) (fun () ->
      check "not recording under a plain collector" false (Qobs.Recorder.active ()));
  (* hooks must be no-ops, not crashes *)
  Qobs.Recorder.note_bucket ~p1:0 ~p2:1 Qobs.Recorder.C2q;
  one_step ();
  Qobs.Recorder.record_result ~cx_routed:1 ~cx_final:1;
  let coupling = Topology.Devices.linear 8 in
  let circuit = Qbench.Generators.qft 6 in
  let plain = transpile ~trials:2 coupling circuit in
  let root = recording () in
  let recorded = transpile ~collector:root ~trials:2 coupling circuit in
  checki "cx_total unchanged by recording" plain.Qroute.Pipeline.cx_total
    recorded.Qroute.Pipeline.cx_total;
  checki "depth unchanged" plain.depth recorded.depth;
  checki "swaps unchanged" plain.n_swaps recorded.n_swaps;
  check "recorder saw the run" true (Qobs.Recorder.steps root <> [])

let test_no_hist_lines_without_recorder () =
  let root = Qobs.Collector.create ~label:"main" () in
  ignore
    (transpile ~collector:root ~trials:2 (Topology.Devices.linear 8)
       (Qbench.Generators.qft 6));
  let jsonl = Qobs.Trace.to_jsonl (Qobs.Trace.of_root root) in
  check "no hist lines when the recorder is off" false
    (contains "\"type\":\"hist\"" jsonl)

let () =
  Alcotest.run "recorder"
    [
      ( "determinism",
        [
          Alcotest.test_case "jsonl identical workers 1 vs 4" `Quick
            test_jsonl_identical_across_workers;
          Alcotest.test_case "children in trial order" `Quick test_children_in_trial_order;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "chosen SWAP among candidates" `Quick
            test_chosen_among_candidates;
          Alcotest.test_case "nassc summary populated" `Quick test_nassc_summary_populated;
        ] );
      ( "collector",
        [
          Alcotest.test_case "without keeps spans and counters" `Quick
            test_without_keeps_spans_and_counters;
          Alcotest.test_case "trials follow the parent" `Quick test_trials_follow_parent;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "results identical without recorder" `Quick
            test_disabled_identical_results;
          Alcotest.test_case "no hist lines without recorder" `Quick
            test_no_hist_lines_without_recorder;
        ] );
    ]
