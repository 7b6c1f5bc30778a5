(* Benchmark regression harness: run the fig9/tables circuits, write a
   schema-versioned BENCH_<git-sha>.json snapshot (per-circuit CNOT counts,
   depth, wall/cpu time, flight-recorder summary stats), and compare it
   against a checked-in baseline with configurable thresholds.  `bench
   --regress` exits non-zero on any breach, which is what the CI
   bench-regress job keys off. *)

module J = Qbench.Jsonlite
module S = Qbench.Snapshot

let schema_version = 2
let kind = "nassc-bench-regress"

(* the checked-in baseline has no hybrid rows; compare_baseline reports a
   row without a baseline entry as "new" instead of failing *)
let routers = Qroute.Pipeline.select_routers [ "sabre"; "nassc"; "hybrid" ]

type row = {
  name : string;
  router : string;
  n_qubits : int;
  cx_total : int;
  depth : int;
  n_swaps : int;
  wall_s : float;
  cpu_s : float;
  route_wall_s : float;  (** summed [trial.route] span wall time *)
  score_cache_hits : int;
  weyl_cache_hits : int;
  weyl_cache_misses : int;
  rec_totals : Qobs.Recorder.totals;
}

(* total wall time spent under spans named [name], across every collector
   of the trace: the root and each merged per-trial child *)
let span_wall trace name =
  List.fold_left
    (fun acc c ->
      List.fold_left
        (fun acc (s : Qobs.Collector.span_rec) ->
          if s.sp_name = name then acc +. s.sp_wall else acc)
        acc (Qobs.Collector.spans c))
    0.0 (Qobs.Trace.collectors trace)

let run_suite ?session ?wide ~quick ~seed ~trials () =
  let coupling = Topology.Devices.montreal in
  let params = { Qroute.Engine.default_params with seed } in
  let entries = Qbench.Suite.regress_suite ~quick in
  List.concat_map
    (fun (e : Qbench.Suite.entry) ->
      let circuit = e.build () in
      List.map
        (fun (rname, router) ->
          Printf.printf "  %-22s %-6s ...%!" e.name rname;
          let obs_root = Qobs.Collector.create ~label:"regress" ~record:true () in
          let r =
            Qobs.with_collector obs_root (fun () ->
                Qroute.Pipeline.transpile ~params ~trials ~router coupling circuit)
          in
          let trace = Qobs.Trace.of_root obs_root in
          let route_wall_s = span_wall trace "trial.route" in
          (* per-job telemetry: one wide event per (circuit, router) row,
             and the row's collector merged under the session root so
             --metrics exposes the whole suite as one registry *)
          (match wide with
          | None -> ()
          | Some buf ->
              let ev =
                Qtel.Wideevent.build ~label:e.name ~router:rname ~topology:"montreal"
                  ~trials ~seed ~original:circuit ~trace
                  ~recorder:(Qobs.Recorder.totals obs_root) ~result:r ()
              in
              Buffer.add_string buf (Qtel.Wideevent.to_json ev);
              Buffer.add_char buf '\n');
          Option.iter (fun s -> Qobs.Collector.add_child s obs_root) session;
          Printf.printf " cx=%d depth=%d swaps=%d (%.2fs, route %.3fs)\n%!" r.cx_total
            r.depth r.n_swaps r.transpile_time route_wall_s;
          {
            name = e.name;
            router = rname;
            n_qubits = e.n_qubits;
            cx_total = r.cx_total;
            depth = r.depth;
            n_swaps = r.n_swaps;
            wall_s = r.transpile_time;
            cpu_s = r.cpu_time;
            route_wall_s;
            score_cache_hits = Qobs.Trace.counter_total trace "engine.score_cache_hits";
            weyl_cache_hits = Qobs.Trace.counter_total trace "nassc.weyl_cache_hits";
            weyl_cache_misses = Qobs.Trace.counter_total trace "nassc.weyl_cache_misses";
            rec_totals = Qobs.Recorder.totals obs_root;
          })
        routers)
    entries

(* ---- snapshot ---- *)

let row_json r =
  let t = r.rec_totals in
  J.Obj
    [
      ("name", J.Str r.name);
      ("router", J.Str r.router);
      ("n_qubits", J.int r.n_qubits);
      ("cx_total", J.int r.cx_total);
      ("depth", J.int r.depth);
      ("n_swaps", J.int r.n_swaps);
      ("wall_s", J.Num r.wall_s);
      ("cpu_s", J.Num r.cpu_s);
      ("route_wall_s", J.Num r.route_wall_s);
      ("score_cache_hits", J.int r.score_cache_hits);
      ("weyl_cache_hits", J.int r.weyl_cache_hits);
      ("weyl_cache_misses", J.int r.weyl_cache_misses);
      ( "recorder",
        J.Obj
          [
            ("steps", J.int t.Qobs.Recorder.steps);
            ("candidates", J.int t.candidates);
            ("forced", J.int t.forced);
            ("predicted_savings", J.Num t.predicted);
            ("realized_savings", J.int t.realized);
            ("chosen_c2q", J.int t.chosen_c2q);
            ("chosen_commute1", J.int t.chosen_commute1);
            ("chosen_commute2", J.int t.chosen_commute2);
          ] );
    ]

let snapshot ~suite ~seed ~trials rows =
  S.document ~schema_version ~kind
    [
      ("suite", J.Str suite);
      ("seed", J.int seed);
      ("trials", J.int trials);
      ("topology", J.Str "montreal");
      ("circuits", J.List (List.map row_json rows));
    ]

(* ---- baseline comparison ---- *)

type breach = { what : string; base : int; cur : int; pct : float; limit : float }

let pct_delta base cur =
  if base = 0 then if cur = 0 then 0.0 else infinity
  else 100.0 *. float_of_int (cur - base) /. float_of_int base

let compare_baseline ~max_cx ~max_depth ~rows json =
  let open J in
  let fail m =
    Printf.eprintf "regress: bad baseline: %s\n" m;
    exit 2
  in
  let ver =
    match Option.bind (member "schema_version" json) to_int with
    | Some v -> v
    | None -> fail "missing schema_version"
  in
  if ver <> schema_version then
    fail
      (Printf.sprintf
         "schema_version %d does not match harness version %d; regenerate the baseline \
          with `bench --regress --out <baseline>`"
         ver schema_version);
  let base_rows =
    match Option.bind (member "circuits" json) to_list with
    | Some l -> l
    | None -> fail "missing circuits array"
  in
  let lookup name router =
    List.find_opt
      (fun c ->
        Option.bind (member "name" c) to_string = Some name
        && Option.bind (member "router" c) to_string = Some router)
      base_rows
  in
  let breaches = ref [] in
  let missing = ref 0 in
  List.iter
    (fun r ->
      match lookup r.name r.router with
      | None ->
          incr missing;
          Printf.printf "  %-22s %-6s new (no baseline entry)\n" r.name r.router
      | Some c ->
          let metric what limit base cur =
            let pct = pct_delta base cur in
            let mark =
              if pct > limit then begin
                breaches := { what; base; cur; pct; limit } :: !breaches;
                "REGRESSION"
              end
              else if pct < 0.0 then "improved"
              else "ok"
            in
            Printf.printf "  %-22s %-6s %-6s %6d -> %6d (%+.1f%%, limit +%.1f%%) %s\n"
              r.name r.router what base cur pct limit mark
          in
          let base_of key =
            match Option.bind (member key c) to_int with
            | Some v -> v
            | None -> fail (Printf.sprintf "baseline row missing %s" key)
          in
          metric "cx" max_cx (base_of "cx_total") r.cx_total;
          metric "depth" max_depth (base_of "depth") r.depth)
    rows;
  (List.rev !breaches, !missing)

let run ?metrics ?wide_events ~quick ~baseline ~out ~max_cx ~max_depth ~seed ~trials () =
  let suite = if quick then "quick" else "full" in
  Printf.printf "=== bench --regress (%s suite, montreal, seed %d, trials %d) ===\n%!"
    suite seed trials;
  if metrics <> None then Qobs.set_extended_metrics true;
  let session =
    match metrics with
    | None -> None
    | Some _ -> Some (Qobs.Collector.create ~label:"bench" ())
  in
  let wide = Option.map (fun _ -> Buffer.create 4096) wide_events in
  let rows = run_suite ?session ?wide ~quick ~seed ~trials () in
  (* telemetry artifacts are written before the baseline gate so a
     regression failure still leaves the evidence on disk *)
  (match (metrics, session) with
  | Some file, Some root ->
      let page = Qtel.Expose.to_string (Qobs.Trace.of_root root) in
      List.iter
        (fun (e : Qtel.Promlint.error) ->
          Printf.eprintf "regress: metrics lint: line %d: %s\n" e.line e.msg)
        (Qtel.Promlint.lint page);
      let oc = open_out file in
      output_string oc page;
      close_out oc;
      Printf.printf "metrics: %s\n" file
  | _ -> ());
  (match (wide_events, wide) with
  | Some file, Some buf ->
      let oc = open_out file in
      Buffer.output_buffer oc buf;
      close_out oc;
      Printf.printf "wide events: %s\n" file
  | _ -> ());
  Printf.printf "snapshot: %s\n" (S.write ?out ~suffix:"" (snapshot ~suite ~seed ~trials rows));
  let baseline_file =
    match baseline with
    | Some f -> Some f
    | None ->
        let default = Printf.sprintf "bench/baselines/regress-%s.json" suite in
        if Sys.file_exists default then Some default else None
  in
  match baseline_file with
  | None ->
      Printf.printf
        "no baseline found (bench/baselines/regress-%s.json); copy the snapshot there to \
         seed one\n"
        suite;
      0
  | Some file ->
      if not (Sys.file_exists file) then begin
        Printf.eprintf "regress: baseline %s does not exist\n" file;
        2
      end
      else begin
        Printf.printf "baseline: %s\n" file;
        let json =
          let ic = open_in_bin file in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          try J.of_string s
          with J.Parse_error m ->
            Printf.eprintf "regress: cannot parse %s: %s\n" file m;
            exit 2
        in
        let breaches, _missing = compare_baseline ~max_cx ~max_depth ~rows json in
        if breaches = [] then begin
          Printf.printf "regress: OK (%d rows within thresholds: cx +%.1f%%, depth +%.1f%%)\n"
            (List.length rows) max_cx max_depth;
          0
        end
        else begin
          Printf.printf "regress: FAILED (%d metric(s) over threshold)\n"
            (List.length breaches);
          1
        end
      end
