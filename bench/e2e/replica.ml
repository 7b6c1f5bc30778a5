(* The traced run's copy of [Pipeline.transpile] and
   [Pipeline.transpile_stream], rebuilt from the layers' public functions so
   that each call can sit inside its own span.  Both must produce exactly
   the pipeline's output (the run checks it on every job); otherwise the
   layer numbers would describe a different program.  Only the
   configurations the workloads use are covered: SABRE or NASSC, hop
   distances, no calibration, and no per-chunk optimization on streams. *)

open Qroute
module C = Qcircuit.Circuit

type output = Routed of Pipeline.result | Streamed of Pipeline.stream_result

(* The pipeline empties both caches at job and trial start under a
   collector so that cache counters depend on the job alone.  The stream
   flow does not, but it is done here too: cache contents never change a
   routing decision (keys are exact signatures), only the hit counts. *)
let reset_caches () =
  Qpasses.Commutation.reset_cache ();
  Nassc.reset_weyl_cache ()

(* span keys of a stage list: dots become underscores and a repeated
   stage gets a [_2] suffix, e.g. post-routing [cancellation_2] *)
let stage_keys stages =
  let seen = Hashtbl.create 8 in
  List.map
    (fun (name, f) ->
      let key = String.map (fun ch -> if ch = '.' then '_' else ch) name in
      let k = 1 + Option.value ~default:0 (Hashtbl.find_opt seen key) in
      Hashtbl.replace seen key k;
      ((if k = 1 then key else Printf.sprintf "%s_%d" key k), f))
    stages

let pre_keys = stage_keys Pipeline.pre_stages
let post_keys = stage_keys Pipeline.post_stages
let bonus_of = function Pipeline.Nassc_router cfg -> Nassc.bonus cfg | _ -> Engine.zero_bonus

(* one routing trial: distances, DAG, layout, routing, SWAP finalization,
   then the post-routing stages ([Sabre.route] / [Nassc.route] followed by
   [Pipeline.post_optimize]) *)
let route_trial acc ~router ~params coupling logical =
  reset_caches ();
  let n_phys = Topology.Coupling.n_qubits coupling in
  let sp name f = Spans.span acc name f in
  let dist = sp "topology.distmat" (fun () -> Topology.Distmat.hops coupling) in
  let dag = sp "qcircuit.dag" (fun () -> Qcircuit.Dag.of_circuit logical) in
  let layout =
    sp "qroute.find_layout" (fun () ->
        Engine.find_layout params coupling ~rng:(Engine.layout_rng params) ~dist
          ~bonus:Engine.zero_bonus ~dag logical)
  in
  let r =
    sp "qroute.route" (fun () ->
        Engine.route_once params coupling ~rng:(Engine.route_rng params) ~dist
          ~bonus:(bonus_of router) ~dag logical layout)
  in
  let routed =
    sp "qroute.finalize" (fun () ->
        match router with
        | Pipeline.Nassc_router _ -> C.create n_phys (Nassc.finalize r.routed)
        | _ -> Sabre.decompose_swaps (Engine.to_circuit ~n_phys r.routed))
  in
  let final =
    List.fold_left
      (fun c (key, f) ->
        let c = sp ("qpasses.post." ^ key) (fun () -> f c) in
        Spans.count acc ("qpasses.post." ^ key ^ ".cx_out") (float_of_int (C.cx_count c));
        c)
      routed post_keys
  in
  let routed_cx = C.cx_count routed in
  Spans.count acc "qroute.routed_cx" (float_of_int routed_cx);
  if Workloads.is_nassc router then
    Spans.count acc "qroute.nassc.realized_savings" (float_of_int (routed_cx - C.cx_count final));
  (final, r)

let batch acc ~router ~params ~trials ~workers coupling circuit =
  reset_caches ();
  let lowered = Spans.span acc "qgate.lower" (fun () -> Pipeline.lower_to_2q circuit) in
  let logical =
    List.fold_left
      (fun c (key, f) -> Spans.span acc ("qpasses.pre." ^ key) (fun () -> f c))
      lowered pre_keys
  in
  Spans.count acc "qpasses.pre.gates_out" (float_of_int (C.size logical));
  Spans.count acc "qpasses.pre.cx_out" (float_of_int (C.cx_count logical));
  let accs = Array.init trials (fun _ -> Spans.create ()) in
  let report =
    Trials.run ~workers ~n:trials ~base_seed:params.Engine.seed
      ~measure:(fun ((final : C.t), (r : Engine.result)) ->
        (C.cx_count final, C.depth final, r.n_swaps))
      (fun ~trial ~seed ->
        route_trial accs.(trial) ~router ~params:{ params with Engine.seed } coupling logical)
  in
  Array.iter (fun a -> Spans.merge ~into:acc a) accs;
  let final, r = report.best in
  Spans.count acc "qroute.swaps" (float_of_int r.n_swaps);
  Routed
    {
      Pipeline.circuit = final;
      cx_total = report.best_stat.cx_total;
      depth = report.best_stat.depth;
      n_swaps = r.n_swaps;
      transpile_time = report.wall_time;
      cpu_time = 0.0;
      initial_layout = Some r.initial_layout;
      final_layout = Some r.final_layout;
      trial_stats = report.stats;
    }

(* [Pipeline.transpile_stream ~optimize:false]: streaming lowering, lazy
   distance rows, layout search on the first [window] gates, windowed
   routing, incremental SWAP finalization and chunked emission *)
let stream acc ~router ~params ~window coupling make_source =
  reset_caches ();
  let chunk = 4096 (* the pipeline's default *) in
  let sp name f = Spans.span acc name f in
  let n_phys = Topology.Coupling.n_qubits coupling in
  let src = make_source () in
  let src =
    Qcircuit.Source.create ~n_qubits:(Qcircuit.Source.n_qubits src) (fun () ->
        sp "qcircuit.source" (fun () -> Qcircuit.Source.pull src))
  in
  let lowered =
    Qcircuit.Source.map src (fun (i : C.instr) ->
        sp "qgate.lower" (fun () ->
            Qgate.Decompose.to_cx_basis [ (i.gate, i.qubits) ]
            |> List.map (fun (g, qs) -> { C.gate = g; qubits = qs })))
  in
  let dist =
    Topology.Distmat.lazy_rows ~n:n_phys (fun a ->
        sp "topology.distmat" (fun () ->
            Array.map
              (fun v -> if v = max_int then infinity else float_of_int v)
              (Topology.Coupling.dist_row coupling a)))
  in
  let keep =
    match router with
    | Pipeline.Nassc_router cfg -> max 64 (cfg.Nassc.scan_limit + 8)
    | _ -> 64
  in
  let prefix, lowered = Qcircuit.Source.prefix lowered window in
  let prefix = C.create (Qcircuit.Source.n_qubits lowered) prefix in
  let dag = sp "qcircuit.dag" (fun () -> Qcircuit.Dag.of_circuit prefix) in
  let layout =
    sp "qroute.find_layout" (fun () ->
        Engine.find_layout params coupling ~rng:(Engine.layout_rng params) ~dist
          ~bonus:Engine.zero_bonus ~dag prefix)
  in
  (* chunk accounting as in the pipeline: the same per-qubit level
     recurrence as [Circuit.depth] over the concatenated chunks *)
  let gates_out = ref 0 and cx_out = ref 0 and chunks = ref 0 and depth = ref 0 in
  let level = Array.make (max n_phys 1) 0 in
  let pending = ref 0 in
  let flush_chunk () =
    if !pending > 0 then begin
      pending := 0;
      incr chunks
    end
  in
  let emit (i : C.instr) =
    (match i.gate with
    | Qgate.Gate.Barrier _ -> ()
    | g ->
        incr gates_out;
        (match g with Qgate.Gate.CX -> incr cx_out | _ -> ());
        let d = 1 + List.fold_left (fun acc q -> max acc level.(q)) 0 i.qubits in
        List.iter (fun q -> level.(q) <- d) i.qubits;
        depth := max !depth d);
    incr pending;
    if !pending >= chunk then flush_chunk ()
  in
  let fin = Nassc.Streaming.create ~emit in
  let st =
    sp "qroute.route" (fun () ->
        Engine.route_stream params coupling ~rng:(Engine.route_rng params) ~dist
          ~bonus:(bonus_of router) ~window ~keep
          ~sink:(fun op -> sp "qroute.finalize" (fun () -> Nassc.Streaming.push fin op))
          lowered layout)
  in
  sp "qroute.finalize" (fun () ->
      Nassc.Streaming.flush fin;
      flush_chunk ());
  Spans.count acc "qroute.swaps" (float_of_int st.st_n_swaps);
  Spans.count acc "qroute.routed_cx" (float_of_int !cx_out);
  Streamed
    {
      Pipeline.sr_gates_in = st.st_gates_in;
      sr_gates_out = !gates_out;
      sr_cx_out = !cx_out;
      sr_depth_out = !depth;
      sr_n_swaps = st.st_n_swaps;
      sr_chunks = !chunks;
      sr_peak_resident = st.st_peak_resident;
      sr_initial_layout = st.st_initial_layout;
      sr_final_layout = st.st_final_layout;
    }

(* the replica's output equals the pipeline's: same final circuit, swap
   count and layouts, or the same stream counts *)
let same a b =
  match (a, b) with
  | Routed x, Routed y ->
      C.equal x.circuit y.circuit && x.n_swaps = y.n_swaps
      && x.initial_layout = y.initial_layout && x.final_layout = y.final_layout
  | Streamed x, Streamed y -> x = y
  | _ -> false
