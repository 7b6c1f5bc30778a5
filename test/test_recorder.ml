(* The routing flight recorder: the decision trail is deterministic across
   worker counts for a fixed seed, every chosen SWAP appears in its own
   recorded candidate set (all routers, several topologies), the nassc
   summary carries realized savings, and with no recorder installed the
   pipeline output is identical to an unrecorded run. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let nassc_router = Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config

let transpile ?recorder ?(workers = 1) ?(trials = 1) ?(router = nassc_router) coupling
    circuit =
  let params = { Qroute.Engine.default_params with seed = 11 } in
  let run () =
    Qroute.Pipeline.transpile ~params ~trials ~workers ~router coupling circuit
  in
  match recorder with
  | None -> run ()
  | Some r -> Qobs.Recorder.with_recorder r run

(* trials always land in per-trial child recorders; flatten them *)
let all_steps r =
  Qobs.Recorder.steps r
  @ List.concat_map Qobs.Recorder.steps (Qobs.Recorder.children r)

let norm (a, b) = (min a b, max a b)

(* ---------- determinism ---------- *)

let test_jsonl_identical_across_workers () =
  let jsonl workers =
    let r = Qobs.Recorder.create ~label:"main" () in
    ignore
      (transpile ~recorder:r ~workers ~trials:4 (Topology.Devices.linear 8)
         (Qbench.Generators.qft 6));
    Qobs.Recorder.to_jsonl r
  in
  let a = jsonl 1 and b = jsonl 4 in
  check "recorder jsonl identical, workers 1 vs 4" true (String.equal a b);
  check "non-trivial" true (String.length a > 1000)

let test_children_in_trial_order () =
  let r = Qobs.Recorder.create ~label:"main" () in
  ignore
    (transpile ~recorder:r ~workers:4 ~trials:4 (Topology.Devices.linear 8)
       (Qbench.Generators.qft 6));
  let trials = List.filter_map Qobs.Recorder.trial (Qobs.Recorder.children r) in
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
          let r = Qobs.Recorder.create ~label:"main" () in
          ignore (transpile ~recorder:r ~router coupling circuit);
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
            (all_steps r))
        topologies)
    routers;
  check "swept a non-trivial number of steps" true (!some_steps > 100)

(* ---------- summary / totals ---------- *)

let test_nassc_summary_populated () =
  let r = Qobs.Recorder.create ~label:"main" () in
  ignore
    (transpile ~recorder:r ~trials:2 (Topology.Devices.linear 8)
       (Qbench.Generators.qft 6));
  let t = Qobs.Recorder.totals r in
  checki "one summary per trial" 2 t.Qobs.Recorder.trials_summarized;
  check "steps recorded" true (t.steps > 0);
  check "candidates recorded" true (t.candidates >= t.steps);
  check "cx_routed positive" true (t.cx_routed > 0);
  check "realized = routed - final" true (t.realized = t.cx_routed - t.cx_final);
  check "jsonl carries trial_summary" true
    (let s = Qobs.Recorder.to_jsonl r in
     let n = String.length s and m = "trial_summary" in
     let ml = String.length m in
     let rec go i = i + ml <= n && (String.sub s i ml = m || go (i + 1)) in
     go 0)

(* ---------- disabled-recorder compatibility ---------- *)

let test_disabled_identical_results () =
  check "no recorder active outside with_recorder" false (Qobs.Recorder.active ());
  (* hooks must be no-ops, not crashes *)
  Qobs.Recorder.note_bucket ~p1:0 ~p2:1 Qobs.Recorder.C2q;
  Qobs.Recorder.record_step ~front:1
    ~candidates:[ { Qobs.Recorder.p1 = 0; p2 = 1; h_basic = 0.; h_lookahead = 0.; h = 0.; bonus = 0. } ]
    ~chosen:(0, 1) ~chosen_bonus:0.0 ();
  Qobs.Recorder.record_result ~cx_routed:1 ~cx_final:1;
  let coupling = Topology.Devices.linear 8 in
  let circuit = Qbench.Generators.qft 6 in
  let plain = transpile ~trials:2 coupling circuit in
  let r = Qobs.Recorder.create ~label:"main" () in
  let recorded = transpile ~recorder:r ~trials:2 coupling circuit in
  checki "cx_total unchanged by recording" plain.Qroute.Pipeline.cx_total
    recorded.Qroute.Pipeline.cx_total;
  checki "depth unchanged" plain.depth recorded.depth;
  checki "swaps unchanged" plain.n_swaps recorded.n_swaps;
  check "recorder saw the run" true (all_steps r <> [])

let test_no_hist_lines_without_recorder () =
  let root = Qobs.Collector.create ~label:"main" () in
  ignore
    (Qobs.with_collector root (fun () ->
         transpile ~trials:2 (Topology.Devices.linear 8) (Qbench.Generators.qft 6)));
  let jsonl = Qobs.Trace.to_jsonl (Qobs.Trace.of_root root) in
  let contains affix s =
    let n = String.length s and m = String.length affix in
    let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
    go 0
  in
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
      ( "disabled",
        [
          Alcotest.test_case "results identical without recorder" `Quick
            test_disabled_identical_results;
          Alcotest.test_case "no hist lines without recorder" `Quick
            test_no_hist_lines_without_recorder;
        ] );
    ]
