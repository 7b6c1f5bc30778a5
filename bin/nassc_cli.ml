(* Command-line front end: transpile a benchmark circuit for a device
   topology and report the paper's metrics, optionally emitting OpenQASM. *)

open Cmdliner

let benchmark_arg =
  let doc = "Benchmark name (see `list`), e.g. 'VQE 8-qubits'." in
  Arg.(value & opt string "VQE 8-qubits" & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let topology_arg =
  let doc =
    "Device topology: montreal | linear | ring | heavy_hex | grid | full | eagle (127q) \
     | osprey (433q)."
  in
  Arg.(value & opt string "montreal" & info [ "t"; "topology" ] ~docv:"TOPOLOGY" ~doc)

let size_arg =
  let doc = "Qubit count for linear/full (grid uses the nearest square)." in
  Arg.(value & opt int 27 & info [ "n"; "size" ] ~docv:"N" ~doc)

let router_arg =
  let doc =
    "Router: " ^ String.concat " | " (List.map fst Qroute.Pipeline.routers @ [ "none" ]) ^ "."
  in
  Arg.(value & opt string "nassc" & info [ "r"; "router" ] ~docv:"ROUTER" ~doc)

let seed_arg =
  let doc = "Routing seed." in
  Arg.(value & opt int 11 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let trials_arg =
  let doc =
    "Run N independently-seeded routing trials in parallel and keep the best result \
     (lowest cx_total, then depth).  1 reproduces the paper's single-shot pipeline."
  in
  Arg.(value & opt int 1 & info [ "trials" ] ~docv:"N" ~doc)

let workers_arg =
  let doc = "Domain pool size for --trials (default: the machine's core count)." in
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"W" ~doc)

let qasm_arg =
  let doc = "Print the transpiled circuit as OpenQASM 2." in
  Arg.(value & flag & info [ "qasm" ] ~doc)

let lint_arg =
  let doc =
    "Run the full Qlint rule set (structural rules, basis conformance, CheckMap, layout \
     validity) over the transpiled result and exit non-zero on any violation."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

let trace_arg =
  let doc =
    "Record an observability trace (per-pass spans, counters, per-trial gauges) and emit \
     it as JSON lines to $(docv) ('-' = stderr).  When a file is given, a human-readable \
     profile summary is also printed to stderr.  Without --trace-times the trace is \
     deterministic: byte-identical for any worker count."
  in
  Arg.(value & opt ~vopt:(Some "-") (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_times_arg =
  let doc = "Include wall/CPU milliseconds on span lines (nondeterministic)." in
  Arg.(value & flag & info [ "trace-times" ] ~doc)

let record_arg =
  let doc =
    "Enable the routing flight recorder and write the decision trail (front-layer size, \
     every candidate SWAP with its heuristic components and savings bucket, the chosen \
     SWAP, per-trial realized CNOT savings) to $(docv) ('-' = stderr)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "record.jsonl") (some string) None
    & info [ "record" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Export the run's observability registry as a Prometheus/OpenMetrics text page to \
     $(docv) ('-' = stderr): counters as _total series, per-trial gauges with a trial \
     label, histograms as cumulative _bucket/_sum/_count.  Implies collecting a trace \
     and enables the extended pipeline gauges (input sizes, trial settings).  The page \
     is linted before it is written; violations are reported on stderr."
  in
  Arg.(
    value & opt ~vopt:(Some "-") (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let wide_arg =
  let doc =
    "Append one wide event — a single structured JSON object describing this whole \
     transpile job (identity, input/output metrics, per-trial outcomes, cache hit \
     rates, flight-recorder savings buckets, lint verdict when --lint ran) — to the \
     JSONL sink $(docv) ('-' = stderr).  Deterministic: byte-identical for any worker \
     count; add --trace-times to append an 'rt' object with wall/CPU/stage durations."
  in
  Arg.(
    value
    & opt ~vopt:(Some "wide.jsonl") (some string) None
    & info [ "wide-events" ] ~docv:"FILE" ~doc)

let sample_arg =
  let doc =
    "Run the background resource sampler during the transpile, polling every $(docv) \
     milliseconds (GC stats, RSS from /proc/self/status, routing-pool utilization).  A \
     one-paragraph summary goes to stderr, and with --trace/--metrics the qtel.* \
     gauges are merged into the trace (nondeterministic values — opt-in only)."
  in
  Arg.(
    value & opt ~vopt:(Some 10.0) (some float) None & info [ "sample" ] ~docv:"MS" ~doc)

let stream_arg =
  let doc =
    "Stream the circuit through the O(window)-memory routing engine instead of the batch \
     pipeline: gates are pulled through a bounded sliding DAG window and routed output \
     is emitted in chunks, so peak memory is independent of circuit length.  Only \
     whole-stream routers are supported (sabre, nassc and their -ha variants) and a \
     single trial; pre/post optimization bundles are skipped."
  in
  Arg.(value & flag & info [ "stream" ] ~doc)

let window_arg =
  let doc = "Sliding DAG window size (gates resident) for --stream." in
  Arg.(value & opt int 4096 & info [ "window" ] ~docv:"N" ~doc)

let trace_format_arg =
  let doc =
    "Export format for --trace and --record: $(b,jsonl) (deterministic JSON lines) or \
     $(b,chrome) (Chrome trace_event JSON, loadable in Perfetto or about://tracing; \
     wall-clock timestamps, so nondeterministic)."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FMT" ~doc)

let write_dest dest s =
  match dest with
  | "-" -> output_string stderr s
  | file ->
      let oc = open_out file in
      output_string oc s;
      close_out oc

(* run [f] under a collector (recording when --record or --wide-events
   asked for the decision trail) and/or the resource sampler as requested,
   and export afterwards.  Returns the collector alongside the result so
   callers can assemble a wide event without re-running anything. *)
let with_obs ~trace ~times ~record ~fmt ~metrics ~wide ~sample f =
  (* --trace-times also opts into the per-step scoring-time histogram
     (engine.step_score_ms); without it the engine never reads the clock on
     the hot path and traces stay deterministic *)
  Qobs.set_timing times;
  (* extended pipeline gauges (input sizes, trial settings) only exist for
     exposition: default traces keep their historical bytes *)
  if metrics <> None then Qobs.set_extended_metrics true;
  (* wide events carry the recorder's savings buckets, so --wide-events
     turns recording on even without --record *)
  let recording = record <> None || wide <> None in
  let collector =
    if recording || trace <> None || metrics <> None then
      Some (Qobs.Collector.create ~label:"main" ~record:recording ())
    else None
  in
  let sampler = Option.map (fun interval_ms -> Qtel.Sampler.start ~interval_ms ()) sample in
  let result =
    Fun.protect ~finally:(fun () -> Option.iter Qtel.Sampler.stop sampler) @@ fun () ->
    match collector with None -> f () | Some c -> Qobs.with_collector c f
  in
  (* merge the resource story before the trace is frozen so --trace and
     --metrics both see the qtel.* gauges *)
  (match (sampler, collector) with Some s, Some c -> Qtel.Sampler.attach s c | _ -> ());
  Option.iter (Qtel.Sampler.pp_summary Format.err_formatter) sampler;
  let trace_v = Option.map Qobs.Trace.of_root collector in
  (match (trace, trace_v) with
  | Some dest, Some tr -> begin
      match fmt with
      | `Jsonl ->
          write_dest dest (Qobs.Trace.to_jsonl ~times tr);
          if dest <> "-" then Qobs.Trace.pp_summary Format.err_formatter tr
      | `Chrome -> write_dest dest (Qobs.Trace.to_chrome tr)
    end
  | _ -> ());
  (match (metrics, trace_v) with
  | Some dest, Some tr ->
      let page = Qtel.Expose.to_string tr in
      List.iter
        (fun (e : Qtel.Promlint.error) ->
          Printf.eprintf "metrics: lint: line %d: %s\n" e.line e.msg)
        (Qtel.Promlint.lint page);
      write_dest dest page
  | _ -> ());
  (match (record, collector) with
  | Some dest, Some c ->
      write_dest dest
        (match fmt with
        | `Jsonl -> Qobs.Recorder.to_jsonl c
        | `Chrome -> Qobs.Recorder.to_chrome c)
  | _ -> ());
  (result, collector)

let check_pool_args trials workers =
  if trials < 1 then Error "--trials must be >= 1"
  else
    match workers with
    | Some w when w < 1 -> Error "--workers must be >= 1"
    | _ -> Ok ()

(* surface lint diagnostics on stderr and return them so the caller can
   derive both the exit code and the wide event's lint verdict *)
let lint_result coupling (r : Qroute.Pipeline.result) =
  let diags = Qlint.Checked.check_result ~coupling r in
  List.iter (fun d -> Format.eprintf "%a@." Qlint.Diagnostic.pp d) diags;
  Format.eprintf "%a@." (fun ppf -> Qlint.Diagnostic.pp_summary ppf ~checks:(Qlint.Rules.checks_run ())) diags;
  diags

(* assemble and append the per-job wide event; [times] (--trace-times)
   gates the nondeterministic "rt" sub-object *)
let emit_wide ~dest ~label ~router ~topology ~trials ~workers ~seed ~original ~collector
    ~lint_diags ~times r =
  let lint_errors =
    Option.map (fun d -> List.length (Qlint.Diagnostic.errors d)) lint_diags
  in
  let ev =
    Qtel.Wideevent.build ~label ~router ~topology ~trials ?workers ~seed ~original
      ?trace:(Option.map Qobs.Trace.of_root collector)
      ?recorder:(Option.map Qobs.Recorder.totals collector)
      ?lint_errors ~result:r ()
  in
  Qtel.Wideevent.append ~dest (Qtel.Wideevent.to_json ~times ev)

let print_trial_stats (r : Qroute.Pipeline.result) =
  if List.length r.trial_stats > 1 then begin
    Printf.printf "trials:          %d\n" (List.length r.trial_stats);
    Printf.printf "  %-6s %-10s %8s %6s %6s %9s  %s\n" "trial" "seed" "cx" "depth" "swaps"
      "wall(s)" "status";
    List.iter
      (fun (s : Qroute.Trials.stat) ->
        match s.error with
        | Some msg ->
            Printf.printf "  %-6d %-10d %8s %6s %6s %9.3f  failed: %s\n" s.trial s.seed "-"
              "-" "-" s.wall_time msg
        | None ->
            Printf.printf "  %-6d %-10d %8d %6d %6d %9.3f  ok\n" s.trial s.seed s.cx_total
              s.depth s.n_swaps s.wall_time)
      r.trial_stats
  end

(* streaming mode: incompatible options are reported as located diagnostics
   (rule route.stream-unsupported), never exceptions *)
let stream_diag rule msg =
  Format.eprintf "%a@." Qlint.Diagnostic.pp
    (Qlint.Diagnostic.error ~loc:(Qlint.Diagnostic.Stage "route") ~rule msg);
  1

let run_stream ~router_name ~router ~trials ~window ~seed ~cal coupling label circuit =
  if not (Qroute.Pipeline.streamable router) then
    stream_diag "route.stream-unsupported"
      (Printf.sprintf "--stream needs a windowable router (%s); %s requires the whole circuit"
         (String.concat " | "
            (List.filter_map
               (fun (n, r) -> if Qroute.Pipeline.streamable r then Some n else None)
               Qroute.Pipeline.routers))
         router_name)
  else if trials > 1 then
    stream_diag "route.stream-unsupported" "--stream routes a single trial; drop --trials"
  else if window < 1 then stream_diag "route.stream-unsupported" "--window must be >= 1"
  else begin
    let params = { Qroute.Engine.default_params with seed } in
    let t0 = Unix.gettimeofday () in
    let chunks = ref 0 in
    match
      Qroute.Pipeline.transpile_stream ~params ~calibration:cal ~window ~router
        ~sink:(fun _ -> incr chunks)
        coupling
        (Qcircuit.Source.of_circuit circuit)
    with
    | exception (Qroute.Engine.Routing_stuck _ as e) ->
        stream_diag "route.stuck" (Printexc.to_string e)
    | r ->
        let dt = Unix.gettimeofday () -. t0 in
        let open Qroute.Pipeline in
        Printf.printf "input:           %s (%d qubits, %d ops)\n" label
          (Qcircuit.Circuit.n_qubits circuit)
          (Qcircuit.Circuit.size circuit);
        Printf.printf "topology:        %d qubits\n" (Topology.Coupling.n_qubits coupling);
        Printf.printf "window:          %d gates (peak resident %d)\n" window
          r.sr_peak_resident;
        Printf.printf "gates in/out:    %d / %d (%d chunks)\n" r.sr_gates_in r.sr_gates_out
          r.sr_chunks;
        Printf.printf "cx_total:        %d\n" r.sr_cx_out;
        Printf.printf "depth:           %d\n" r.sr_depth_out;
        Printf.printf "swaps inserted:  %d\n" r.sr_n_swaps;
        Printf.printf "wall time:       %.3f s (%.0f gates/s)\n" dt
          (float_of_int r.sr_gates_in /. Float.max dt 1e-9);
        0
  end

(* `transpile` and `transpile-file` differ only in how the circuit is
   loaded: [load] yields it with its label (the benchmark name or the file
   path) and the report's first line *)
let transpile_cmd load topology size router seed trials workers qasm lint trace trace_times
    record fmt metrics wide sample stream window =
  match Result.bind (check_pool_args trials workers) load with
  | Error e ->
      prerr_endline e;
      1
  | Ok (circuit, label, header) -> begin
      let coupling =
        try Topology.Devices.by_name topology size
        with Invalid_argument m ->
          prerr_endline m;
          exit 1
      in
      let cal = Topology.Calibration.generate coupling in
      let router_name = router in
      match Qroute.Pipeline.router_of_name router with
      | Error e ->
          prerr_endline e;
          1
      | Ok router ->
          if stream then
            run_stream ~router_name ~router ~trials ~window ~seed ~cal coupling label circuit
          else begin
          let params = { Qroute.Engine.default_params with seed } in
          match
            with_obs ~trace ~times:trace_times ~record ~fmt ~metrics ~wide ~sample
              (fun () ->
                Qroute.Pipeline.transpile ~params ~calibration:cal ~trials ?workers ~router
                  coupling circuit)
          with
          | exception (Qroute.Engine.Routing_stuck _ as e) ->
              Format.eprintf "%a@." Qlint.Diagnostic.pp
                (Qlint.Diagnostic.error ~loc:(Qlint.Diagnostic.Stage "route")
                   ~rule:"route.stuck" (Printexc.to_string e));
              1
          | r, collector ->
          Printf.printf "%s\n" header;
          Printf.printf "topology:        %s (%d qubits)\n" topology
            (Topology.Coupling.n_qubits coupling);
          Printf.printf "cx_total:        %d\n" r.cx_total;
          Printf.printf "depth:           %d\n" r.depth;
          Printf.printf "swaps inserted:  %d\n" r.n_swaps;
          Printf.printf "wall time:       %.3f s\n" r.transpile_time;
          Printf.printf "cpu time:        %.3f s\n" r.cpu_time;
          print_trial_stats r;
          (match r.final_layout with
          | Some fl ->
              Printf.printf "final layout:    %s\n"
                (String.concat " " (Array.to_list (Array.map string_of_int fl)))
          | None -> ());
          if qasm then print_string (Qcircuit.Qasm.to_string r.circuit);
          let lint_diags = if lint then Some (lint_result coupling r) else None in
          Option.iter
            (fun dest ->
              emit_wide ~dest ~label:(Filename.basename label) ~router:router_name
                ~topology ~trials ~workers ~seed ~original:circuit ~collector ~lint_diags
                ~times:trace_times r)
            wide;
          (match lint_diags with
          | Some d when Qlint.Diagnostic.has_errors d -> 1
          | _ -> 0)
        end
    end

let load_benchmark name () =
  match Qbench.Suite.find name with
  | exception Not_found -> Error ("unknown benchmark " ^ name)
  | e ->
      Ok (e.build (), e.name, Printf.sprintf "benchmark:       %s (%d qubits)" e.name e.n_qubits)

let load_file path () =
  match Qcircuit.Qasm_parser.parse_file path with
  | exception (Qcircuit.Qasm_parser.Parse_error m | Sys_error m) -> Error m
  | c ->
      Ok
        ( c,
          path,
          Printf.sprintf "input:           %s (%d qubits, %d ops)" path
            (Qcircuit.Circuit.n_qubits c) (Qcircuit.Circuit.size c) )

let file_arg =
  let doc = "OpenQASM 2 file to transpile." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

(* ---- verify: symbolic equivalence certification ---- *)

let corpus_arg =
  let doc =
    "Certify every cell of the routing golden corpus (circuits x topologies x routers x \
     trials, the same axis test/goldens/routing.golden pins)."
  in
  Arg.(value & flag & info [ "corpus" ] ~doc)

let verify_jsonl_arg =
  let doc = "Append one certificate JSON line per verified cell to $(docv)." in
  Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)

let verify_files_arg =
  let doc = "OpenQASM 2 files to transpile (with -t/-r/-s) and certify." in
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)

(* worst-verdict exit code: 0 all equivalent, 1 any not_equivalent,
   2 otherwise if any unknown *)
let verify_cmd files topology size router_name seed corpus jsonl =
  let buf = Buffer.create 256 in
  let n_ne = ref 0 and n_unknown = ref 0 and n_cells = ref 0 in
  let cell ~name ~tname ~rname ~trials ~original (r : Qroute.Pipeline.result) =
    incr n_cells;
    let v =
      Qverify.verify_routed ~original ~routed:r.Qroute.Pipeline.circuit
        ?initial_layout:r.Qroute.Pipeline.initial_layout
        ?final_layout:r.Qroute.Pipeline.final_layout ()
    in
    (match v with
    | Qverify.Equivalent _ -> ()
    | Qverify.Not_equivalent _ -> incr n_ne
    | Qverify.Unknown _ -> incr n_unknown);
    let str x = Qbench.Jsonlite.(serialize (Str x)) in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"kind\":\"certificate\",\"circuit\":%s,\"topology\":%s,\"router\":%s,\
          \"trials\":%d,\"verdict\":%s}\n"
         (str name) (str tname) (str rname) trials (Qverify.to_json v));
    Printf.printf "%-8s %-12s %-9s trials=%d  %s\n" name tname rname trials
      (Qverify.verdict_name v)
  in
  if corpus then
    List.iter
      (fun (name, original) ->
        List.iter
          (fun (tname, coupling) ->
            List.iter
              (fun (rname, router) ->
                List.iter
                  (fun trials ->
                    let params =
                      { Qroute.Engine.default_params with seed = Golden_defs.seed }
                    in
                    let r =
                      Qroute.Pipeline.transpile ~params ~trials ~workers:2 ~router
                        coupling original
                    in
                    cell ~name ~tname ~rname ~trials ~original r)
                  Golden_defs.trials_axis)
              Qroute.Pipeline.routers)
          (Golden_defs.topologies ()))
      (Golden_defs.circuits ());
  let file_errors = ref 0 in
  if files <> [] then begin
    let coupling =
      try Topology.Devices.by_name topology size
      with Invalid_argument m ->
        prerr_endline m;
        exit 1
    in
    match Qroute.Pipeline.router_of_name router_name with
    | Error e ->
        prerr_endline e;
        incr file_errors
    | Ok router ->
        let params = { Qroute.Engine.default_params with seed } in
        List.iter
          (fun f ->
            match Qcircuit.Qasm_parser.parse_file f with
            | exception Qcircuit.Qasm_parser.Parse_error m ->
                Printf.eprintf "%s: %s\n" f m;
                incr file_errors
            | exception Sys_error m ->
                Printf.eprintf "%s\n" m;
                incr file_errors
            | original ->
                let r = Qroute.Pipeline.transpile ~params ~router coupling original in
                cell ~name:(Filename.basename f) ~tname:topology ~rname:router_name
                  ~trials:1 ~original r)
          files
  end;
  if not corpus && files = [] then begin
    prerr_endline "verify: nothing to do (give FILEs or --corpus)";
    exit 2
  end;
  (match jsonl with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      Buffer.output_buffer oc buf;
      close_out oc);
  Printf.printf "verified %d cells: %d not equivalent, %d unknown\n" !n_cells !n_ne
    !n_unknown;
  if !n_ne > 0 || !file_errors > 0 then 1 else if !n_unknown > 0 then 2 else 0

(* ---- check: the static-analysis entry point ---- *)

let files_arg =
  let doc = "OpenQASM 2 files to lint and transpile-check." in
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)

let pipeline_arg =
  let doc =
    "Validate this comma-separated pass sequence against the pass contracts instead of \
     the canonical pipeline, e.g. 'lower_to_2q,peephole,route,basis'."
  in
  Arg.(value & opt (some string) None & info [ "pipeline" ] ~docv:"SPEC" ~doc)

let suite_arg =
  let doc = "Also transpile-check every circuit of the qbench paper suite." in
  Arg.(value & flag & info [ "suite" ] ~doc)

let no_audit_arg =
  let doc = "Skip the commutation-table and CNOT-savings audit." in
  Arg.(value & flag & info [ "no-audit" ] ~doc)

let jsonl_arg =
  let doc = "Append every diagnostic as a JSON line to $(docv)." in
  Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)

let equiv_arg =
  let doc =
    "Also certify each transpiled circuit semantically equivalent to its input under the \
     routed layouts (Qverify symbolic check; a Not_equivalent verdict is an error, an \
     Unknown verdict a warning)."
  in
  Arg.(value & flag & info [ "equiv" ] ~doc)

let check_cmd files topology size router_name seed pipeline suite no_audit jsonl equiv =
  let buf = Buffer.create 256 in
  let n_errors = ref 0 in
  let report target diags =
    List.iter
      (fun d ->
        Buffer.add_string buf (Qlint.Diagnostic.to_json d);
        Buffer.add_char buf '\n';
        Format.printf "%s: %a@." target Qlint.Diagnostic.pp d)
      diags;
    n_errors := !n_errors + List.length (Qlint.Diagnostic.errors diags)
  in
  let coupling =
    try Topology.Devices.by_name topology size
    with Invalid_argument m ->
      prerr_endline m;
      exit 1
  in
  let cal = Topology.Calibration.generate coupling in
  match Qroute.Pipeline.router_of_name router_name with
  | Error e ->
      prerr_endline e;
      1
  | Ok router ->
      (* 1. static pipeline validation: the user's --pipeline spec, or the
         canonical sequence the selected router would run *)
      (match pipeline with
      | Some spec ->
          let names =
            String.split_on_char ',' spec |> List.map String.trim
            |> List.filter (fun s -> s <> "")
          in
          let diags = Qlint.Contract.validate names in
          report "pipeline" diags;
          Printf.printf "pipeline: %d stages, %s\n" (List.length names)
            (if Qlint.Diagnostic.has_errors diags then "REJECTED" else "legal")
      | None ->
          let diags = Qlint.Checked.validate_pipeline ~router in
          report (Printf.sprintf "pipeline(%s)" router_name) diags;
          Printf.printf "pipeline(%s): %d stages, %s\n" router_name
            (List.length (Qlint.Checked.canonical_stage_names ~router))
            (if Qlint.Diagnostic.has_errors diags then "REJECTED" else "legal"));
      (* 2. commutation / savings audit against dense-unitary ground truth *)
      if not no_audit then begin
        let rep = Qlint.Audit.run ~seed () in
        report "audit" rep.diags;
        Printf.printf "audit: %d commutation pairs, %d savings scenarios, %s\n"
          rep.pairs_checked rep.scenarios_checked
          (if Qlint.Diagnostic.has_errors rep.diags then "FAILED" else "sound")
      end;
      (* 3. lint + guarded transpile of each input circuit *)
      let params = { Qroute.Engine.default_params with seed } in
      let check_circuit target circuit =
        match
          Qlint.Checked.transpile ~params ~calibration:cal ~router coupling circuit
        with
        | Ok r ->
            let sem =
              if equiv then Qlint.Checked.verify_result ~original:circuit r else []
            in
            report target sem;
            if not (Qlint.Diagnostic.has_errors sem) then
              Printf.printf "%s: ok%s (cx=%d depth=%d swaps=%d)\n" target
                (if equiv && sem = [] then " [equivalent]" else "")
                r.Qroute.Pipeline.cx_total r.Qroute.Pipeline.depth
                r.Qroute.Pipeline.n_swaps
        | Error diags -> report target diags
        | exception Invalid_argument m ->
            report target [ Qlint.Diagnostic.error ~rule:"check.invalid-input" m ]
      in
      List.iter
        (fun f ->
          match Qlint.Rules.lint_qasm_file f with
          | Error d -> report f [ d ]
          | Ok circuit -> check_circuit f circuit)
        files;
      if suite then
        List.iter
          (fun (e : Qbench.Suite.entry) -> check_circuit ("suite:" ^ e.name) (e.build ()))
          Qbench.Suite.paper_suite;
      (match jsonl with
      | None -> ()
      | Some file ->
          let oc = open_out file in
          Buffer.output_buffer oc buf;
          close_out oc);
      Printf.printf "checks run: %d, errors: %d\n" (Qlint.Rules.checks_run ()) !n_errors;
      if !n_errors > 0 then 1 else 0

let list_cmd () =
  Printf.printf "%-24s %7s %6s %6s\n" "name" "qubits" "heavy" "noise";
  List.iter
    (fun (e : Qbench.Suite.entry) ->
      Printf.printf "%-24s %7d %6b %6b\n" e.name e.n_qubits e.heavy e.noise_subset)
    Qbench.Suite.paper_suite;
  0

let transpile_t load =
  Term.(
    const transpile_cmd $ load $ topology_arg $ size_arg $ router_arg $ seed_arg $ trials_arg
    $ workers_arg $ qasm_arg $ lint_arg $ trace_arg $ trace_times_arg $ record_arg
    $ trace_format_arg $ metrics_arg $ wide_arg $ sample_arg $ stream_arg $ window_arg)

let cmd_transpile =
  Cmd.v
    (Cmd.info "transpile" ~doc:"Transpile a benchmark and report metrics")
    (transpile_t Term.(const load_benchmark $ benchmark_arg))

let cmd_list = Cmd.v (Cmd.info "list" ~doc:"List available benchmarks") Term.(const list_cmd $ const ())

let cmd_transpile_file =
  Cmd.v
    (Cmd.info "transpile-file" ~doc:"Transpile an OpenQASM 2 file")
    (transpile_t Term.(const load_file $ file_arg))

let check_t =
  Term.(
    const check_cmd $ files_arg $ topology_arg $ size_arg $ router_arg $ seed_arg
    $ pipeline_arg $ suite_arg $ no_audit_arg $ jsonl_arg $ equiv_arg)

let cmd_check =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Static analysis: validate pass-contract orderings, audit the commutation and \
          CNOT-savings tables against ground truth, and lint circuits end to end. Exit \
          status is 1 when any $(b,error)-severity diagnostic fired and 0 otherwise — \
          warnings (e.g. gate.dead) never fail the run. With --jsonl \
          FILE every diagnostic is also appended to FILE as one JSON object per line \
          with the stable fields kind/severity/rule/message plus the location when \
          known."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"all checks passed (warnings allowed)";
           Cmd.Exit.info 1 ~doc:"at least one error-severity diagnostic";
         ])
    check_t

let verify_t =
  Term.(
    const verify_cmd $ verify_files_arg $ topology_arg $ size_arg $ router_arg $ seed_arg
    $ corpus_arg $ verify_jsonl_arg)

let cmd_verify =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Certify routed circuits semantically equivalent to their inputs with the \
          symbolic Pauli-tableau checker (no simulation, device scale); certificates \
          can be exported as JSON lines"
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"every cell certified equivalent";
           Cmd.Exit.info 1 ~doc:"at least one cell is not equivalent (transpiler bug)";
           Cmd.Exit.info 2 ~doc:"no counterexample, but at least one cell is unknown";
         ])
    verify_t

let main =
  Cmd.group
    (Cmd.info "nassc" ~version:"1.0.0"
       ~doc:"Optimization-aware qubit routing (NASSC, HPCA 2022) in OCaml")
    [ cmd_transpile; cmd_transpile_file; cmd_check; cmd_verify; cmd_list ]

let () = exit (Cmd.eval' main)
