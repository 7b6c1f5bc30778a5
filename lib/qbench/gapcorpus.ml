(* The optimality-gap corpus: small instances on which the exact oracle
   (Qroute.Exact) can certify the true minimum SWAP count, so heuristic
   routers can be scored by absolute gap instead of against each other.
   Everything here is deliberately tiny — 3..5 logical qubits, bounded
   depth — because the oracle minimizes over every injective initial
   layout.  The corpus and its one row computation are shared by the gap
   experiment (Experiment.gap), the gap test and Qlint's optimality audit;
   keep it append-only so recorded optima stay valid. *)

let entry = Suite.entry

let circuits =
  [
    entry "ghz3" 3 (fun () -> Extras.ghz 3);
    entry "ghz4" 4 (fun () -> Extras.ghz 4);
    entry "ghz5" 5 (fun () -> Extras.ghz 5);
    entry "wstate3" 3 (fun () -> Extras.w_state 3);
    entry "wstate4" 4 (fun () -> Extras.w_state 4);
    entry "wstate5" 5 (fun () -> Extras.w_state 5);
    entry "qft3" 3 (fun () -> Generators.qft 3);
    entry "qft4" 4 (fun () -> Generators.qft 4);
    entry "qft5" 5 (fun () -> Generators.qft 5);
    entry "bv3" 3 (fun () -> Generators.bernstein_vazirani 3);
    entry "bv4" 4 (fun () -> Generators.bernstein_vazirani 4);
    entry "bv5" 5 (fun () -> Generators.bernstein_vazirani 5);
    entry "qaoa4" 4 (fun () -> Extras.qaoa_maxcut 4);
    entry "qaoa5" 5 (fun () -> Extras.qaoa_maxcut 5);
    entry "vqe4" 4 (fun () -> Generators.vqe 4);
    entry "vqe5" 5 (fun () -> Generators.vqe 5);
    entry "qpe4" 4 (fun () -> Generators.qpe 4);
    entry "qpe5" 5 (fun () -> Generators.qpe 5);
    entry "grover3" 3 (fun () -> Generators.grover 3);
    entry "adder4" 4 (fun () -> Generators.adder 4);
  ]

(* Devices a 5-qubit circuit still fits on, with genuinely different
   connectivity: path, cycle, and a 2x3 mesh. *)
let topologies =
  [
    ("line5", Topology.Devices.linear 5);
    ("ring5", Topology.Devices.ring 5);
    ("grid2x3", Topology.Devices.grid 2 3);
  ]

(* the CI subset: one representative per circuit family *)
let quick_names =
  [ "ghz4"; "wstate4"; "qft4"; "bv4"; "qaoa4"; "vqe4"; "qpe4"; "grover3" ]

let suite ~quick =
  if quick then List.filter (fun (e : Suite.entry) -> List.mem e.name quick_names) circuits
  else circuits

(* generous: the oracle is only consulted offline, and corpus instances
   are small enough that certified optima matter more than latency *)
let oracle_budget = { Qroute.Exact.max_nodes = 5_000_000; max_seconds = infinity }

let routers = Qroute.Pipeline.select_routers [ "sabre"; "nassc"; "astar"; "hybrid" ]
let seed = 11

type row = { two_q : int; optimal : int option; swaps : (string * int) list }

let row ?(seed = seed) (e : Suite.entry) coupling =
  (* the exact circuit the routers route: lowered then pre-optimized *)
  let logical = Qroute.Pipeline.pre_optimize (Qroute.Pipeline.lower_to_2q (e.build ())) in
  let optimal =
    match Qroute.Exact.min_swaps ~budget:oracle_budget coupling logical with
    | Qroute.Exact.Routed { n_swaps; _ } -> Some n_swaps
    | Qroute.Exact.Route_budget_exceeded -> None
  in
  let params = { Qroute.Engine.default_params with seed } in
  let swaps =
    List.map
      (fun (rname, router) ->
        let r = Qroute.Pipeline.transpile ~params ~trials:1 ~router coupling (e.build ()) in
        (rname, r.n_swaps))
      routers
  in
  { two_q = Qcircuit.Circuit.two_qubit_count logical; optimal; swaps }
