(* Wide events: one JSON object per transpile job.

   Assembled from worker-count-invariant sources only (the deterministic
   core) plus an opt-in "rt" object for wall-clock facts.  Serialization
   goes through Qbench.Jsonlite so numbers round-trip exactly and field
   order is the assembly order. *)

module J = Qbench.Jsonlite

type t = {
  label : string option;
  router : string option;
  topology : string option;
  trials : int option;
  workers : int option;
  seed : int option;
  original : Qcircuit.Circuit.t option;
  trace : Qobs.Trace.t option;
  recorder : Qobs.Recorder.totals option;
  lint_errors : int option;
  result : Qroute.Pipeline.result;
}

let build ?label ?router ?topology ?trials ?workers ?seed ?original ?trace ?recorder
    ?lint_errors ~result () =
  { label; router; topology; trials; workers; seed; original; trace; recorder;
    lint_errors; result }

let num_i i = J.Num (float_of_int i)

(* best successful trial by the Trials order, recomputed from the stats so
   the event doesn't depend on internal state *)
let best_trial stats =
  List.fold_left
    (fun acc (s : Qroute.Trials.stat) ->
      match acc with
      | _ when s.error <> None -> acc
      | Some b when not (Qroute.Trials.better s b) -> acc
      | _ -> Some s)
    None stats

let ratio num den = if den = 0 then J.Null else J.Num (float_of_int num /. float_of_int den)

(* per-stage wall milliseconds: spans aggregated by name over the whole
   trace, sorted by name (nondeterministic values -> rt-only) *)
let stage_ms trace =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun c ->
      List.iter
        (fun (s : Qobs.Collector.span_rec) ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.sp_name) in
          Hashtbl.replace tbl s.sp_name (prev +. s.sp_wall))
        (Qobs.Collector.spans c))
    (Qobs.Trace.collectors trace);
  Hashtbl.fold (fun k v acc -> (k, J.Num (1000.0 *. v)) :: acc) tbl []
  |> List.sort compare

let to_json ?(times = false) t =
  let r = t.result in
  let opt name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
  let fields =
    [ ("kind", J.Str "wide_event"); ("schema_version", num_i 1) ]
    @ opt "label" t.label (fun s -> J.Str s)
    @ opt "router" t.router (fun s -> J.Str s)
    @ opt "topology" t.topology (fun s -> J.Str s)
    @ opt "trials" t.trials num_i
    @ opt "seed" t.seed num_i
    @ (match t.original with
      | None -> []
      | Some c ->
          [
            ("qubits_in", num_i (Qcircuit.Circuit.n_qubits c));
            ("gates_in", num_i (Qcircuit.Circuit.size c));
            ("cx_in", num_i (Qcircuit.Circuit.cx_count c));
            ("depth_in", num_i (Qcircuit.Circuit.depth c));
          ])
    @ [
        ("qubits_out", num_i (Qcircuit.Circuit.n_qubits r.Qroute.Pipeline.circuit));
        ("cx_out", num_i r.Qroute.Pipeline.cx_total);
        ("depth_out", num_i r.Qroute.Pipeline.depth);
        ("n_swaps", num_i r.Qroute.Pipeline.n_swaps);
      ]
    @ begin
        let stats = r.Qroute.Pipeline.trial_stats in
        let ok = List.length (List.filter (fun (s : Qroute.Trials.stat) -> s.error = None) stats) in
        [
          ("trials_run", num_i (List.length stats));
          ("trials_ok", num_i ok);
          ("trials_failed", num_i (List.length stats - ok));
          ( "best_trial",
            match best_trial stats with
            | None -> J.Null
            | Some s -> num_i s.Qroute.Trials.trial );
          ( "trial_stats",
            J.List
              (List.map
                 (fun (s : Qroute.Trials.stat) ->
                   J.Obj
                     ([
                        ("trial", num_i s.trial);
                        ("seed", num_i s.seed);
                      ]
                     @
                     match s.error with
                     | Some e -> [ ("error", J.Str e) ]
                     | None ->
                         [
                           ("cx_total", num_i s.cx_total);
                           ("depth", num_i s.depth);
                           ("n_swaps", num_i s.n_swaps);
                         ]))
                 stats) );
        ]
      end
    @ (match t.trace with
      | None -> []
      | Some tr ->
          let c name = Qobs.Trace.counter_total tr name in
          let commute_lookups = c "commutation.cache_lookups" in
          let weyl_hits = c "nassc.weyl_cache_hits" in
          let weyl_misses = c "nassc.weyl_cache_misses" in
          [
            ("score_cache_hits", num_i (c "engine.score_cache_hits"));
            ("weyl_cache_hits", num_i weyl_hits);
            ("weyl_cache_misses", num_i weyl_misses);
            ("weyl_cache_hit_rate", ratio weyl_hits (weyl_hits + weyl_misses));
            ("commutation_cache_hits", num_i (c "commutation.cache_hits"));
            ("commutation_cache_hit_rate", ratio (c "commutation.cache_hits") commute_lookups);
            ("swap_candidates_scored", num_i (c "engine.swap_candidates_scored"));
            ("swaps_emitted", num_i (c "engine.swaps_emitted"));
          ])
    @ (match t.recorder with
      | None -> []
      | Some tot ->
          [
            ( "recorder",
              J.Obj
                [
                  ("steps", num_i tot.Qobs.Recorder.steps);
                  ("candidates", num_i tot.Qobs.Recorder.candidates);
                  ("forced", num_i tot.Qobs.Recorder.forced);
                  ("predicted_savings", J.Num tot.Qobs.Recorder.predicted);
                  ("realized_savings", num_i tot.Qobs.Recorder.realized);
                  ("chosen_c2q", num_i tot.Qobs.Recorder.chosen_c2q);
                  ("chosen_commute1", num_i tot.Qobs.Recorder.chosen_commute1);
                  ("chosen_commute2", num_i tot.Qobs.Recorder.chosen_commute2);
                ] );
          ])
    @ opt "lint_errors" t.lint_errors num_i
    @
    if not times then []
    else
      [
        ( "rt",
          J.Obj
            ([
               ("wall_ms", J.Num (1000.0 *. r.Qroute.Pipeline.transpile_time));
               ("cpu_ms", J.Num (1000.0 *. r.Qroute.Pipeline.cpu_time));
             ]
            @ opt "workers" t.workers num_i
            @
            match t.trace with
            | None -> []
            | Some tr -> [ ("stage_ms", J.Obj (stage_ms tr)) ]) );
      ]
  in
  J.serialize (J.Obj fields)

let append ~dest line =
  match dest with
  | "-" ->
      output_string stderr line;
      output_string stderr "\n"
  | file ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
      output_string oc line;
      output_string oc "\n";
      close_out oc
