open Qpasses

type router =
  | Full_connectivity
  | Sabre_router
  | Nassc_router of Nassc.config
  | Sabre_ha
  | Nassc_ha of Nassc.config
  | Astar_router
  | Hybrid_router of Hybrid.config

type result = {
  circuit : Qcircuit.Circuit.t;
  cx_total : int;
  depth : int;
  n_swaps : int;
  transpile_time : float;
  cpu_time : float;
  initial_layout : int array option;
  final_layout : int array option;
  trial_stats : Trials.stat list;
}

let lower_to_2q c =
  let lowered =
    Qcircuit.Circuit.instrs c
    |> List.map (fun (i : Qcircuit.Circuit.instr) -> (i.gate, i.qubits))
    |> Qgate.Decompose.to_cx_basis
    |> List.map (fun (g, qs) -> { Qcircuit.Circuit.gate = g; qubits = qs })
  in
  Qcircuit.Circuit.create (Qcircuit.Circuit.n_qubits c) lowered

(* each optimization stage runs under a named span so `--trace` can
   attribute time per pass; a no-op without a collector *)
let pass name f c = Qobs.span ("pass." ^ name) (fun () -> f c)

type stage = string * (Qcircuit.Circuit.t -> Qcircuit.Circuit.t)

(* the optimization bundles as data: static analysis (Qlint) validates the
   ordering against pass contracts and a checked runner can verify the
   declared properties between stages, without duplicating the stage list *)
let pre_stages : stage list =
  [
    ("peephole", Peephole.run);
    ("optimize_1q.u", Optimize_1q.run Optimize_1q.U_gate);
    ("cancellation", Cancellation.run_fixpoint ~max_rounds:3);
    ("unitary_synthesis", Unitary_synthesis.run);
    ("optimize_1q.u", Optimize_1q.run Optimize_1q.U_gate);
  ]

let post_stages : stage list =
  [
    ("peephole", Peephole.run);
    ("cancellation", Cancellation.run_fixpoint ~max_rounds:3);
    ("unitary_synthesis", Unitary_synthesis.run);
    ("basis", Basis.run);
    ("cancellation", Cancellation.run_fixpoint ~max_rounds:2);
    ("optimize_1q.zsx", Optimize_1q.run Optimize_1q.Zsx);
  ]

let run_stages stages c = List.fold_left (fun c (name, f) -> pass name f c) c stages

(* ---- the router registry ----

   The one name -> router table: the CLI, the bench harnesses, the
   matrix/golden corpora and the tests all resolve names here.  Subsets
   (streamable, noise-aware, a test's chosen columns) are filters over it
   or name lists looked up in it, never second tables of constructors. *)

let routers =
  [
    ("sabre", Sabre_router);
    ("nassc", Nassc_router Nassc.default_config);
    ("astar", Astar_router);
    ("sabre-ha", Sabre_ha);
    ("nassc-ha", Nassc_ha Nassc.default_config);
    ("hybrid", Hybrid_router Hybrid.default_config);
  ]

let router_of_name = function
  | "none" -> Ok Full_connectivity
  | name -> (
      match List.assoc_opt name routers with
      | Some r -> Ok r
      | None ->
          Error
            (Printf.sprintf "unknown router %s (valid: %s)" name
               (String.concat " | " (List.map fst routers @ [ "none" ]))))

let select_routers names =
  List.map
    (fun name ->
      match router_of_name name with
      | Ok r -> (name, r)
      | Error e -> invalid_arg ("Pipeline.select_routers: " ^ e))
    names

let streamable = function
  | Sabre_router | Nassc_router _ | Sabre_ha | Nassc_ha _ -> true
  | Full_connectivity | Astar_router | Hybrid_router _ -> false

let noise_aware = function Sabre_ha | Nassc_ha _ -> true | _ -> false

let stage_names ~router =
  let names stages = List.map fst stages in
  ("lower_to_2q" :: names pre_stages)
  @ (match router with Full_connectivity -> [] | _ -> [ "route" ])
  @ names post_stages

let pre_optimize c =
  Qobs.span "pipeline.pre_optimize" @@ fun () -> run_stages pre_stages c

let post_optimize c =
  Qobs.span "pipeline.post_optimize" @@ fun () -> run_stages post_stages c

(* eq. 3's noise-aware distance matrix for the HA routers, [None] for the
   rest; built once per call, outside the trial fan-out *)
let noise_dist router calibration coupling =
  if noise_aware router then
    Some
      (Qobs.span "pipeline.noise_dist" @@ fun () ->
       Topology.Calibration.noise_distmat
         (match calibration with
         | Some cal -> cal
         | None -> Topology.Calibration.generate coupling))
  else None

(* per-trial outcome gauges; recorded on the trial's own collector *)
let g_cx = Qobs.gauge "trial.cx_total"
let g_depth = Qobs.gauge "trial.depth"
let g_swaps = Qobs.gauge "trial.n_swaps"
let g_routed_cx = Qobs.gauge "trial.routed_cx"
let g_realized = Qobs.gauge "trial.realized_cnot_savings"

(* job-level input gauges for the Qtel telemetry layer (metrics exposition
   and wide events).  Deterministic — a pure function of the input circuit
   and the requested trial count — but recorded only under the
   extended-metrics opt-in so pre-Qtel trace exports stay byte-identical.
   The worker count is deliberately NOT recorded: every recorded series
   must be invariant under the worker count. *)
let g_gates_in = Qobs.gauge "pipeline.gates_in"
let g_cx_in = Qobs.gauge "pipeline.cx_in"
let g_depth_in = Qobs.gauge "pipeline.depth_in"
let g_qubits_in = Qobs.gauge "pipeline.qubits_in"
let g_trials_req = Qobs.gauge "pipeline.trials"

(* ---- streaming transpilation ---- *)

type stream_result = {
  sr_gates_in : int;
  sr_gates_out : int;
  sr_cx_out : int;
  sr_depth_out : int;
  sr_n_swaps : int;
  sr_chunks : int;
  sr_peak_resident : int;
  sr_initial_layout : int array;
  sr_final_layout : int array;
}

let transpile_stream ?(params = Engine.default_params) ?calibration ?(window = 4096)
    ?(chunk = 4096) ?(optimize = false) ~router ~sink coupling source =
  if window < 1 then invalid_arg "Pipeline.transpile_stream: window must be >= 1";
  if chunk < 1 then invalid_arg "Pipeline.transpile_stream: chunk must be >= 1";
  if not (streamable router) then
    invalid_arg
      (Printf.sprintf
         "Pipeline.transpile_stream: router needs the whole circuit (streaming supports %s)"
         (String.concat "/"
            (List.filter_map (fun (n, r) -> if streamable r then Some n else None) routers)));
  Qobs.span "pipeline.transpile_stream" @@ fun () ->
  let n_phys = Topology.Coupling.n_qubits coupling in
  (* streaming lowering to the <=2q basis: each pulled instruction expands
     in place, so no materialized circuit ever exists *)
  let lowered =
    Qcircuit.Source.map source (fun (i : Qcircuit.Circuit.instr) ->
        Qgate.Decompose.to_cx_basis [ (i.gate, i.qubits) ]
        |> List.map (fun (g, qs) -> { Qcircuit.Circuit.gate = g; qubits = qs }))
  in
  let dist =
    match noise_dist router calibration coupling with
    | Some d -> d
    | None ->
        (* on-demand rows: mega-scale devices never allocate the dense
           n^2 hop matrix *)
        Topology.Distmat.hops_lazy coupling
  in
  let bonus, keep =
    match router with
    | Nassc_router config | Nassc_ha config ->
        (* the emitted-op holdback must cover the bonus scan window so
           flushed ops are never retro-tagged (see Engine.stream_create) *)
        (Nassc.bonus config, max 64 (config.Nassc.scan_limit + 8))
    | _ -> (Engine.zero_bonus, 64)
  in
  (* layout search runs on a bounded prefix of the stream (the routers'
     bidirectional search needs a materialized circuit); the prefix then
     replays so routing still consumes the stream from gate zero *)
  let prefix_instrs, lowered = Qcircuit.Source.prefix lowered window in
  let prefix_circuit =
    Qcircuit.Circuit.create (Qcircuit.Source.n_qubits lowered) prefix_instrs
  in
  let layout =
    Qobs.span "pipeline.stream_layout" @@ fun () ->
    Engine.find_layout params coupling ~rng:(Engine.layout_rng params) ~dist
      ~bonus:Engine.zero_bonus prefix_circuit
  in
  (* chunked emission: finalized instructions accumulate into [chunk]-sized
     circuits, optionally post-optimized per chunk, then flow to [sink].
     Output depth/counts are tracked incrementally with the same per-qubit
     level recurrence as [Circuit.depth], so with [optimize = false] they
     equal the whole-circuit metrics of the concatenated chunks. *)
  let gates_out = ref 0 and cx_out = ref 0 and chunks = ref 0 in
  let level = Array.make (max n_phys 1) 0 in
  let depth_out = ref 0 in
  let buf = ref [] and buf_n = ref 0 in
  let flush_chunk () =
    if !buf_n > 0 then begin
      let c = Qcircuit.Circuit.create n_phys (List.rev !buf) in
      buf := [];
      buf_n := 0;
      let c = if optimize then post_optimize c else c in
      incr chunks;
      List.iter
        (fun (i : Qcircuit.Circuit.instr) ->
          match i.gate with
          | Qgate.Gate.Barrier _ -> ()
          | g ->
              incr gates_out;
              (match g with Qgate.Gate.CX -> incr cx_out | _ -> ());
              let d = 1 + List.fold_left (fun acc q -> max acc level.(q)) 0 i.qubits in
              List.iter (fun q -> level.(q) <- d) i.qubits;
              if d > !depth_out then depth_out := d)
        (Qcircuit.Circuit.instrs c);
      sink c
    end
  in
  let emit_instr i =
    buf := i :: !buf;
    incr buf_n;
    if !buf_n >= chunk then flush_chunk ()
  in
  (* the streaming finalizer handles both routers: SABRE's untagged swaps
     take the plain 3-CX decomposition, NASSC's tagged ones the oriented
     path with 1q pull-through *)
  let fin = Nassc.Streaming.create ~emit:emit_instr in
  let stats =
    Engine.route_stream params coupling ~rng:(Engine.route_rng params) ~dist ~bonus
      ~window ~keep
      ~sink:(fun op -> Nassc.Streaming.push fin op)
      lowered layout
  in
  Nassc.Streaming.flush fin;
  flush_chunk ();
  {
    sr_gates_in = stats.Engine.st_gates_in;
    sr_gates_out = !gates_out;
    sr_cx_out = !cx_out;
    sr_depth_out = !depth_out;
    sr_n_swaps = stats.Engine.st_n_swaps;
    sr_chunks = !chunks;
    sr_peak_resident = stats.Engine.st_peak_resident;
    sr_initial_layout = stats.Engine.st_initial_layout;
    sr_final_layout = stats.Engine.st_final_layout;
  }

let transpile ?(params = Engine.default_params) ?calibration ?(trials = 1) ?workers ~router
    coupling circuit =
  if trials < 1 then invalid_arg "Pipeline.transpile: trials must be >= 1";
  Qobs.span "pipeline.transpile" @@ fun () ->
  (* traced runs start from empty commutation and Weyl-cost caches so the
     cache counters (and hence the whole trace) are a pure function of this
     transpile call, not of whatever ran earlier in the process *)
  if Qobs.active () then begin
    Qpasses.Commutation.reset_cache ();
    Nassc.reset_weyl_cache ()
  end;
  if Qobs.active () && Qobs.extended_metrics_enabled () then begin
    Qobs.gauge_set g_gates_in (float_of_int (Qcircuit.Circuit.size circuit));
    Qobs.gauge_set g_cx_in (float_of_int (Qcircuit.Circuit.cx_count circuit));
    Qobs.gauge_set g_depth_in (float_of_int (Qcircuit.Circuit.depth circuit));
    Qobs.gauge_set g_qubits_in (float_of_int (Qcircuit.Circuit.n_qubits circuit));
    Qobs.gauge_set g_trials_req (float_of_int trials)
  end;
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  (* shared read-only inputs, computed once before the fan-out: the
     pre-optimized logical circuit, the distance matrix and the DAG plans.
     Per-trial mutable state (mappings, decay, RNG, DAG walks) lives inside
     the routers, domain-locally. *)
  let logical = pre_optimize (Qobs.span "pipeline.lower_to_2q" (fun () -> lower_to_2q circuit)) in
  (* the routing metric (eq. 3's for the HA routers, hop counts for the
     rest) and the two DAG plans every layout pass and final route walks *)
  let dist, plans =
    match router with
    | Full_connectivity | Astar_router -> (None, None)
    | Sabre_router | Sabre_ha | Nassc_router _ | Nassc_ha _ | Hybrid_router _ ->
        let dist =
          match noise_dist router calibration coupling with
          | Some d -> d
          | None -> Sabre.hop_distance coupling
        in
        (Some dist, Some (Engine.plans logical))
  in
  let route_with params =
    match router with
    | Full_connectivity -> (logical, 0, None)
    | Sabre_router | Sabre_ha ->
        let r = Sabre.route ~params ?dist ?plans coupling logical in
        (Sabre.decompose_swaps r.circuit, r.n_swaps, Some (r.initial_layout, r.final_layout))
    | Nassc_router config | Nassc_ha config ->
        let r = Nassc.route ~params ~config ?dist ?plans coupling logical in
        (r.circuit, r.n_swaps, Some (r.initial_layout, r.final_layout))
    | Astar_router ->
        let r =
          Astar.route ~params:{ Astar.default_params with seed = params.Engine.seed }
            coupling logical
        in
        (Sabre.decompose_swaps r.circuit, r.n_swaps, Some (r.initial_layout, r.final_layout))
    | Hybrid_router config ->
        let r = Hybrid.route ~params ~config ?dist ?plans coupling logical in
        (r.circuit, r.n_swaps, Some (r.initial_layout, r.final_layout))
  in
  let report =
    Qobs.span "pipeline.trials" @@ fun () ->
    Trials.run ?workers ~n:trials ~base_seed:params.Engine.seed
      ~measure:(fun (final, n_swaps, _) ->
        (Qcircuit.Circuit.cx_count final, Qcircuit.Circuit.depth final, n_swaps))
      (fun ~trial:_ ~seed ->
        (* fresh per-trial caches: hit/miss counts become a pure function of
           this trial's work, whatever domain it lands on *)
        if Qobs.active () then begin
          Qpasses.Commutation.reset_cache ();
          Nassc.reset_weyl_cache ()
        end;
        let routed, n_swaps, layouts =
          Qobs.span "trial.route" (fun () -> route_with { params with Engine.seed })
        in
        let final = post_optimize routed in
        if Qobs.active () then begin
          let cx_routed = Qcircuit.Circuit.cx_count routed in
          let cx_final = Qcircuit.Circuit.cx_count final in
          Qobs.gauge_set g_cx (float_of_int cx_final);
          Qobs.gauge_set g_depth (float_of_int (Qcircuit.Circuit.depth final));
          Qobs.gauge_set g_swaps (float_of_int n_swaps);
          Qobs.gauge_set g_routed_cx (float_of_int cx_routed);
          (* CNOTs the post-routing passes actually recovered, the realized
             side of eq. 1's prediction (engine.predicted_cnot_savings) and
             of the recorder's per-step predictions *)
          Qobs.gauge_set g_realized (float_of_int (cx_routed - cx_final));
          Qobs.Recorder.record_result ~cx_routed ~cx_final
        end;
        (final, n_swaps, layouts))
  in
  let final, n_swaps, layouts = report.Trials.best in
  {
    circuit = final;
    cx_total = report.Trials.best_stat.Trials.cx_total;
    depth = report.Trials.best_stat.Trials.depth;
    n_swaps;
    transpile_time = Unix.gettimeofday () -. wall0;
    cpu_time = Sys.time () -. cpu0;
    initial_layout = Option.map fst layouts;
    final_layout = Option.map snd layouts;
    trial_stats = report.Trials.stats;
  }
