(* The benchmark matrix: routers x topologies x circuit families, the
   IQM-benchmark-style comparison harness (arXiv:2502.03908) behind
   `bench --only matrix`.

   Each cell transpiles one family instance on one topology with one
   router and reports CNOT totals and SWAP counts next to depth overhead
   (routed depth over the Full_connectivity-optimized depth of the same
   circuit) and the analytic estimated success probability under that
   topology's synthetic calibration.  Every number is a deterministic
   function of (instance, topology, router, seed) — no wall-clock fields —
   so the JSON snapshot, the markdown table and the golden quick subset
   are byte-identical across runs and worker counts. *)

type instance = {
  family : string;
  instance : string;
  n_qubits : int;
  build : unit -> Qcircuit.Circuit.t;
}

let inst family instance n_qubits build = { family; instance; n_qubits; build }

let instances ~quick =
  if quick then
    [
      inst "random" "g30-d0.40-5q" 5 (fun () ->
          Generators.random_density ~seed:11 ~gates:30 ~density:0.4 5);
      inst "qaoa-er" "p1-e0.50-5q" 5 (fun () ->
          Generators.qaoa_erdos_renyi ~seed:11 ~p:1 ~edge_prob:0.5 5);
      inst "brickwork" "c4-5q" 5 (fun () ->
          Generators.supremacy_brickwork ~seed:11 ~cycles:4 5);
      inst "ghz" "5q" 5 (fun () -> Generators.ghz_chain 5);
      inst "ladder" "r2-4q" 4 (fun () -> Generators.cx_ladder ~rounds:2 4);
    ]
  else
    List.map
      (fun d ->
        inst "random"
          (Printf.sprintf "g60-d%.2f-8q" d)
          8
          (fun () -> Generators.random_density ~seed:11 ~gates:60 ~density:d 8))
      [ 0.2; 0.4; 0.6; 0.8 ]
    @ List.map
        (fun p ->
          inst "qaoa-er"
            (Printf.sprintf "p2-e%.2f-8q" p)
            8
            (fun () -> Generators.qaoa_erdos_renyi ~seed:11 ~p:2 ~edge_prob:p 8))
        [ 0.3; 0.5; 0.8 ]
    @ [
        inst "brickwork" "c6-8q" 8 (fun () ->
            Generators.supremacy_brickwork ~seed:11 ~cycles:6 8);
        inst "brickwork" "c6-12q" 12 (fun () ->
            Generators.supremacy_brickwork ~seed:11 ~cycles:6 12);
        inst "ghz" "8q" 8 (fun () -> Generators.ghz_chain 8);
        inst "ghz" "12q" 12 (fun () -> Generators.ghz_chain 12);
        inst "ladder" "r3-8q" 8 (fun () -> Generators.cx_ladder ~rounds:3 8);
        inst "ladder" "r3-12q" 12 (fun () -> Generators.cx_ladder ~rounds:3 12);
      ]

let quick_topologies () =
  [
    ("line5", Topology.Devices.linear 5);
    ("grid2x3", Topology.Devices.grid 2 3);
    ("heavyhex2x2", Topology.Devices.heavy_hex 2 2);
  ]

(* the golden quick subset pins only the two smallest topologies, so the
   checked-in snapshot stays short and regeneration stays cheap *)
let golden_topologies () =
  [ ("line5", Topology.Devices.linear 5); ("grid2x3", Topology.Devices.grid 2 3) ]

let full_topologies () =
  [
    ("line12", Topology.Devices.linear 12);
    ("ring12", Topology.Devices.ring 12);
    ("grid3x4", Topology.Devices.grid 3 4);
    ("heavyhex2x3", Topology.Devices.heavy_hex 2 3);
    ("montreal", Topology.Devices.montreal);
  ]

type cell = {
  family : string;
  instance : string;
  topology : string;
  router : string;
  n_qubits : int;
  base_cx : int;
  base_depth : int;
  cx_total : int;
  depth : int;
  n_swaps : int;
  depth_overhead : float;
  esp : float;
  rec_steps : int;
  rec_candidates : int;
}

let default_seed = 11
let default_trials = 4

let c_cells = Qobs.counter "matrix.cells"
let c_esp_evals = Qobs.counter "matrix.esp_evals"
let c_skipped = Qobs.counter "matrix.cells_skipped"

let run ?(seed = default_seed) ?(trials = default_trials) ?workers ~instances ~topologies
    () =
  let params = { Qroute.Engine.default_params with seed } in
  List.concat_map
    (fun i ->
      let circuit = i.build () in
      (* the no-routing baseline the depth-overhead column is relative to *)
      let base =
        Qroute.Pipeline.transpile ~params ~router:Qroute.Pipeline.Full_connectivity
          (Topology.Devices.fully_connected i.n_qubits)
          circuit
      in
      List.concat_map
        (fun (tname, coupling) ->
          if Topology.Coupling.n_qubits coupling < i.n_qubits then begin
            Qobs.incr c_skipped;
            []
          end
          else begin
            let cal = Topology.Calibration.generate coupling in
            List.map
              (fun (rname, router) ->
                Qobs.incr c_cells;
                let cell = Qobs.Collector.create ~label:"matrix" ~record:true () in
                let r =
                  Qobs.with_collector cell (fun () ->
                      Qroute.Pipeline.transpile ~params ~trials ?workers ~router coupling
                        circuit)
                in
                let esp =
                  match r.final_layout with
                  | Some fl ->
                      Qobs.incr c_esp_evals;
                      Qsim.Success.routed_esp ~cal ~routed:r.circuit ~final_layout:fl
                  | None -> 1.0
                in
                let t = Qobs.Recorder.totals cell in
                {
                  family = i.family;
                  instance = i.instance;
                  topology = tname;
                  router = rname;
                  n_qubits = i.n_qubits;
                  base_cx = base.cx_total;
                  base_depth = base.depth;
                  cx_total = r.cx_total;
                  depth = r.depth;
                  n_swaps = r.n_swaps;
                  depth_overhead =
                    float_of_int r.depth /. float_of_int (max 1 base.depth);
                  esp;
                  rec_steps = t.Qobs.Recorder.steps;
                  rec_candidates = t.Qobs.Recorder.candidates;
                })
              Qroute.Pipeline.routers
          end)
        topologies)
    instances

(* ---- exports ---- *)

let schema_version = 1
let kind = "nassc-bench-matrix"

let cell_json c =
  Jsonlite.Obj
    [
      ("family", Jsonlite.Str c.family);
      ("instance", Jsonlite.Str c.instance);
      ("topology", Jsonlite.Str c.topology);
      ("router", Jsonlite.Str c.router);
      ("n_qubits", Jsonlite.int c.n_qubits);
      ("base_cx", Jsonlite.int c.base_cx);
      ("base_depth", Jsonlite.int c.base_depth);
      ("cx_total", Jsonlite.int c.cx_total);
      ("depth", Jsonlite.int c.depth);
      ("n_swaps", Jsonlite.int c.n_swaps);
      ("depth_overhead", Jsonlite.Num c.depth_overhead);
      ("esp", Jsonlite.Num c.esp);
      ("recorder_steps", Jsonlite.int c.rec_steps);
      ("recorder_candidates", Jsonlite.int c.rec_candidates);
    ]

let to_json ~suite ~seed ~trials cells =
  Snapshot.document ~schema_version ~kind
    [
      ("suite", Jsonlite.Str suite);
      ("seed", Jsonlite.int seed);
      ("trials", Jsonlite.int trials);
      ("cells", Jsonlite.List (List.map cell_json cells));
    ]

let markdown cells =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "| family | instance | topology | router | cx_total | swaps | depth | depth_overhead \
     | esp |\n";
  Buffer.add_string b "|---|---|---|---|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s | %s | %s | %d | %d | %d | %.3f | %.4f |\n" c.family
           c.instance c.topology c.router c.cx_total c.n_swaps c.depth c.depth_overhead
           c.esp))
    cells;
  Buffer.contents b

let golden_lines cells =
  String.concat ""
    (List.map
       (fun c ->
         Printf.sprintf "%s %s %s %s cx=%d swaps=%d depth=%d overhead=%s esp=%s steps=%d \
                         cand=%d\n"
           c.family c.instance c.topology c.router c.cx_total c.n_swaps c.depth
           (Jsonlite.number_to_string c.depth_overhead)
           (Jsonlite.number_to_string c.esp)
           c.rec_steps c.rec_candidates)
       cells)
