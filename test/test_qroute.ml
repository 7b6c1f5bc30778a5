open Mathkit
open Qcircuit
open Qgate
open Qroute

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let random_2q_circuit rng n len =
  let b = Circuit.Builder.create n in
  for _ = 1 to len do
    match Rng.int rng 5 with
    | 0 -> Circuit.Builder.add b Gate.H [ Rng.int rng n ]
    | 1 -> Circuit.Builder.add b (Gate.RZ (Rng.float rng 6.28)) [ Rng.int rng n ]
    | 2 -> Circuit.Builder.add b Gate.T [ Rng.int rng n ]
    | _ ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b Gate.CX [ a; c ]
  done;
  Circuit.Builder.circuit b

(* one routing call of the pipeline's driver, at [params] *)
let route ?calibration ?(params = Engine.default_params) router coupling c =
  Pipeline.route ?calibration ~router coupling c params

let sabre ?params coupling c = route ?params Pipeline.Sabre_router coupling c
let nassc ?params coupling c = route ?params (Pipeline.Nassc_router Nassc.default_config) coupling c

(* Routed-circuit semantics (see Qsim.Equiv): the routed state restricted
   to the final layout must equal the logical state. *)
let routing_preserves_semantics routed_circuit final_layout logical =
  Qsim.Equiv.routed_equal ~logical ~routed:routed_circuit ~final_layout

(* ---------- engine basics ---------- *)

let test_fully_connected_no_swaps () =
  let coupling = Topology.Devices.fully_connected 5 in
  let rng = Rng.create 1 in
  let c = random_2q_circuit rng 5 30 in
  let r = sabre coupling c in
  checki "no swaps on full connectivity" 0 r.n_swaps;
  check "still valid" true (Sabre.check_routed coupling r.circuit)

let test_route_rejects_wide_gates () =
  let coupling = Topology.Devices.linear 4 in
  let c = Circuit.create 4 [ { gate = Gate.CCX; qubits = [ 0; 1; 2 ] } ] in
  check "raises" true
    (try
       ignore (sabre coupling c);
       false
     with Invalid_argument _ -> true)

let test_mapping_layout_validation () =
  check "duplicate physical rejected" true
    (try
       ignore (Engine.mapping_of_layout ~n_phys:3 [| 1; 1 |]);
       false
     with Invalid_argument _ -> true)

(* ---------- candidate enumeration and the layout search ---------- *)

(* what the routers enumerated before [Engine.Candidates]: every edge
   touching a listed qubit, [replace]d into an unseeded table and folded *)
let stdlib_candidates ~initial_buckets coupling qubits =
  let set = Hashtbl.create ~random:false initial_buckets in
  List.iter
    (fun p ->
      List.iter
        (fun nb -> Hashtbl.replace set (min p nb, max p nb) ())
        (Topology.Coupling.neighbors coupling p))
    qubits;
  Hashtbl.fold (fun k () acc -> k :: acc) set []

let engine_candidates cands qubits =
  Engine.Candidates.clear cands;
  List.iter (Engine.Candidates.add cands) qubits;
  List.init (Engine.Candidates.order cands) (fun i ->
      (Engine.Candidates.p1 cands i, Engine.Candidates.p2 cands i))

let random_coupling rng n n_edges =
  let edges = Hashtbl.create 64 in
  while Hashtbl.length edges < n_edges do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then Hashtbl.replace edges (min a b, max a b) ()
  done;
  Topology.Coupling.create n (List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edges []))

(* random graphs up to 300 edges and fronts of up to 40 qubit pairs, so
   sets past 32, 64 and 128 keys take the stdlib's resize paths *)
let test_candidates_match_stdlib () =
  let rng = Rng.create 2024 in
  let sizes = ref [] in
  for _ = 1 to 60 do
    let n = 8 + Rng.int rng 80 in
    let coupling = random_coupling rng n (min (n * (n - 1) / 2) (n + Rng.int rng 240)) in
    List.iter
      (fun initial_buckets ->
        let cands = Engine.Candidates.create ~initial_buckets coupling in
        (* one enumerator per graph, reused across steps as the routers do *)
        for _ = 1 to 5 do
          let qubits = List.init (2 * (1 + Rng.int rng 40)) (fun _ -> Rng.int rng n) in
          let expected = stdlib_candidates ~initial_buckets coupling qubits in
          sizes := List.length expected :: !sizes;
          check "same candidates, same order" true
            (engine_candidates cands qubits = expected)
        done)
      [ 16; 32 ]
  done;
  check "a set resized to 64 buckets" true (List.exists (fun k -> k > 64 && k <= 128) !sizes);
  check "a set resized to 128 buckets" true (List.exists (fun k -> k > 128) !sizes)

(* the layout search as it was before its passes became layout-only:
   whole [route_once] passes, keeping only the final layouts *)
let reference_find_layout params coupling ~rng ~dist circuit =
  let perm = Rng.permutation rng (Topology.Coupling.n_qubits coupling) in
  let layout = ref (Array.init (Circuit.n_qubits circuit) (fun l -> perm.(l))) in
  let bwd =
    Circuit.create (Circuit.n_qubits circuit)
      (List.rev
         (List.filter (fun (i : Circuit.instr) -> i.gate <> Gate.Measure) (Circuit.instrs circuit)))
  in
  for _ = 1 to params.Engine.iterations do
    let pass c l =
      (Engine.route_once params coupling ~rng:(Engine.route_rng params) ~dist
         ~bonus:Engine.zero_bonus c l)
        .final_layout
    in
    layout := pass bwd (pass circuit !layout)
  done;
  !layout

(* [random_2q_circuit] with measurements and barriers (over 1 to [n]
   distinct wires) sprinkled between its gates *)
let with_directives rng c =
  let n = Circuit.n_qubits c in
  let directive () =
    if Rng.int rng 2 = 0 then [ { Circuit.gate = Gate.Measure; qubits = [ Rng.int rng n ] } ]
    else
      let wires = List.filter (fun _ -> Rng.int rng 2 = 0) (List.init n Fun.id) in
      let wires = if wires = [] then [ Rng.int rng n ] else wires in
      [ { Circuit.gate = Gate.Barrier (List.length wires); qubits = wires } ]
  in
  Circuit.create n
    (List.concat_map
       (fun i -> if Rng.int rng 4 = 0 then i :: directive () else [ i ])
       (Circuit.instrs c))

let test_find_layout_matches_reference () =
  let rng = Rng.create 99 in
  List.iter
    (fun coupling ->
      let dist = Topology.Distmat.hops coupling in
      let n = min 6 (Topology.Coupling.n_qubits coupling) in
      List.iter
        (fun seed ->
          let params = { Engine.default_params with seed } in
          let plain = random_2q_circuit rng n 40 in
          List.iter
            (fun c ->
              let reference =
                reference_find_layout params coupling ~rng:(Engine.layout_rng params) ~dist c
              in
              let search ?plans () =
                Engine.find_layout params coupling ~rng:(Engine.layout_rng params) ~dist
                  ~bonus:Engine.zero_bonus ?plans c
              in
              check "find_layout equals whole-pass reference" true (search () = reference);
              check "and so with the plans given" true
                (search ~plans:(Engine.plans c) () = reference);
              (* measurements never steer a pass, so only the plan's size
                 shows that the backward one drops them *)
              checki "the backward plan has no measurements"
                (List.length
                   (List.filter
                      (fun (i : Circuit.instr) -> i.gate <> Gate.Measure)
                      (Circuit.instrs c)))
                (Streamdag.Plan.size (Engine.plans c).backward))
            [ plain; with_directives rng plain ])
        [ 1; 5; 11; 23 ])
    Topology.Devices.[ linear 7; ring 7; grid 3 3; heavy_hex 2 2 ]

(* the batch pipeline builds the forward and the backward plan once, not
   per trial or per layout pass *)
let test_two_plans_per_transpile () =
  let coupling = Topology.Devices.montreal in
  let c = Qbench.Generators.qft 8 in
  List.iter
    (fun (name, router) ->
      List.iter
        (fun workers ->
          let before = Streamdag.Plan.count () in
          ignore (Pipeline.transpile ~trials:4 ~workers ~router coupling c);
          checki
            (Printf.sprintf "%s, %d workers: two plans" name workers)
            2
            (Streamdag.Plan.count () - before))
        [ 1; 4 ])
    (Pipeline.select_routers [ "sabre"; "nassc"; "sabre-ha"; "hybrid" ])

let test_find_layout_rejects_bonus () =
  let coupling = Topology.Devices.linear 5 in
  let c = random_2q_circuit (Rng.create 4) 4 20 in
  let params = Engine.default_params in
  check "a non-zero bonus is refused" true
    (try
       ignore
         (Engine.find_layout params coupling ~rng:(Engine.layout_rng params)
            ~dist:(Topology.Distmat.hops coupling) ~bonus:(Nassc.bonus Nassc.default_config) c);
       false
     with Invalid_argument _ -> true)

(* ---------- SABRE ---------- *)

let devices =
  [
    ("linear5", Topology.Devices.linear 5, 5);
    ("grid9", Topology.Devices.grid 3 3, 9);
    ("montreal", Topology.Devices.montreal, 27);
  ]

let test_sabre_validity () =
  let rng = Rng.create 42 in
  List.iter
    (fun (name, coupling, n) ->
      for _ = 1 to 3 do
        let c = random_2q_circuit rng (min n 5) 40 in
        let r = sabre coupling c in
        check (name ^ " routed validly") true (Sabre.check_routed coupling r.circuit)
      done)
    devices

let test_sabre_semantics () =
  let rng = Rng.create 7 in
  for trial = 1 to 8 do
    let c = random_2q_circuit rng 4 25 in
    let coupling = Topology.Devices.linear 5 in
    let params = { Engine.default_params with seed = trial } in
    let r = sabre ~params coupling c in
    check "sabre preserves semantics" true
      (routing_preserves_semantics r.circuit r.final_layout c)
  done

let test_sabre_layout_is_permutation () =
  let rng = Rng.create 3 in
  let c = random_2q_circuit rng 5 30 in
  let r = sabre Topology.Devices.montreal c in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun p ->
      check "phys in range" true (p >= 0 && p < 27);
      check "no duplicate" false (Hashtbl.mem seen p);
      Hashtbl.add seen p ())
    r.final_layout

(* ---------- NASSC ---------- *)

let test_nassc_validity () =
  let rng = Rng.create 43 in
  List.iter
    (fun (name, coupling, n) ->
      for _ = 1 to 3 do
        let c = random_2q_circuit rng (min n 5) 40 in
        let r = nassc coupling c in
        check (name ^ " nassc routed validly") true (Sabre.check_routed coupling r.circuit)
      done)
    devices

let test_nassc_semantics () =
  let rng = Rng.create 17 in
  for trial = 1 to 8 do
    let c = random_2q_circuit rng 4 25 in
    let coupling = Topology.Devices.linear 5 in
    let params = { Engine.default_params with seed = 100 + trial } in
    let r = nassc ~params coupling c in
    check "nassc preserves semantics" true
      (routing_preserves_semantics r.circuit r.final_layout c)
  done

let test_nassc_no_swap_gates_left () =
  let rng = Rng.create 19 in
  let c = random_2q_circuit rng 5 40 in
  let r = nassc (Topology.Devices.linear 6) c in
  checki "swaps all decomposed" 0 (Circuit.gate_count r.circuit "swap")

let test_nassc_disabled_equals_sabre () =
  (* with every optimization off the two routers must produce the same
     number of swaps from the same seed *)
  let rng = Rng.create 23 in
  let off =
    { Nassc.enable_2q = false; enable_commute1 = false; enable_commute2 = false;
      orient_swaps = true; scan_limit = 20 }
  in
  for trial = 1 to 5 do
    let c = random_2q_circuit rng 5 40 in
    let params = { Engine.default_params with seed = trial } in
    let rs = sabre ~params (Topology.Devices.linear 6) c in
    let rn = route ~params (Pipeline.Nassc_router off) (Topology.Devices.linear 6) c in
    checki "same swap count" rs.n_swaps rn.n_swaps
  done

(* ---------- finalize / oriented decomposition ---------- *)

let test_finalize_plain () =
  let ops =
    [
      { Engine.gate = Gate.H; op_qubits = [ 0 ]; tag = Engine.Not_swap };
      { Engine.gate = Gate.SWAP; op_qubits = [ 0; 1 ]; tag = Engine.Swap_plain };
    ]
  in
  let instrs = Nassc.finalize ops in
  checki "3 cx + 1 h" 4 (List.length instrs);
  let c = Circuit.create 2 instrs in
  let expected =
    Circuit.create 2
      [ { gate = Gate.H; qubits = [ 0 ] }; { gate = Gate.SWAP; qubits = [ 0; 1 ] } ]
  in
  check "plain finalize unitary" true
    (Mat.equal_up_to_phase (Circuit.unitary c) (Circuit.unitary expected))

let test_finalize_oriented_moves_1q () =
  (* cx(0,1); rz on 0; oriented swap: rz must move to wire 1 after the
     swap, and the decomposition must start with cx(0,1) *)
  let ops =
    [
      { Engine.gate = Gate.CX; op_qubits = [ 0; 1 ]; tag = Engine.Not_swap };
      { Engine.gate = Gate.RZ 0.7; op_qubits = [ 0 ]; tag = Engine.Not_swap };
      { Engine.gate = Gate.SWAP; op_qubits = [ 0; 1 ]; tag = Engine.Swap_orient (0, 1) };
    ]
  in
  let instrs = Nassc.finalize ops in
  let c = Circuit.create 2 instrs in
  let reference =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.RZ 0.7; qubits = [ 0 ] };
        { gate = Gate.SWAP; qubits = [ 0; 1 ] };
      ]
  in
  check "oriented finalize unitary" true
    (Mat.equal_up_to_phase (Circuit.unitary c) (Circuit.unitary reference));
  (* adjacent cx(0,1) cx(0,1) must now be present for cancellation *)
  (match instrs with
  | { gate = Gate.CX; qubits = [ 0; 1 ] } :: { gate = Gate.CX; qubits = [ 0; 1 ] } :: _ ->
      ()
  | _ -> Alcotest.fail "expected back-to-back cx(0,1)");
  let optimized = Qpasses.Cancellation.run c in
  check "cancellation fires" true (Circuit.cx_count optimized < 4)

let test_finalize_oriented_semantics_random () =
  (* random circuits with oriented swaps keep their unitary *)
  let rng = Rng.create 31 in
  for _ = 1 to 10 do
    let mk_tag () =
      match Rng.int rng 3 with
      | 0 -> Engine.Swap_plain
      | 1 -> Engine.Swap_orient (0, 1)
      | _ -> Engine.Swap_orient (1, 0)
    in
    let ops = ref [] in
    for _ = 1 to 12 do
      match Rng.int rng 4 with
      | 0 ->
          ops :=
            { Engine.gate = Gate.H; op_qubits = [ Rng.int rng 2 ]; tag = Engine.Not_swap }
            :: !ops
      | 1 ->
          ops :=
            { Engine.gate = Gate.CX; op_qubits = [ 0; 1 ]; tag = Engine.Not_swap } :: !ops
      | 2 ->
          ops :=
            { Engine.gate = Gate.SWAP; op_qubits = [ 0; 1 ]; tag = mk_tag () } :: !ops
      | _ ->
          ops :=
            {
              Engine.gate = Gate.RZ (Rng.float rng 3.0);
              op_qubits = [ Rng.int rng 2 ];
              tag = Engine.Not_swap;
            }
            :: !ops
    done;
    let ops = List.rev !ops in
    let finalized = Circuit.create 2 (Nassc.finalize ops) in
    let reference =
      Circuit.create 2
        (List.map
           (fun (op : Engine.out_op) ->
             { Circuit.gate = op.gate; qubits = op.op_qubits })
           ops)
    in
    check "finalize preserves unitary" true
      (Mat.equal_up_to_phase (Circuit.unitary finalized) (Circuit.unitary reference))
  done

(* the single finalization's identity for SABRE: on the ops the engine
   emits for a distance-only route (a circuit's own gates untagged, inserted
   SWAPs [Swap_plain]), [Nassc.finalize] gives the instructions of the fixed
   template *)
let gen_plain_ops =
  QCheck.Gen.(
    let q = int_range 0 3 in
    let pair = map (fun (a, d) -> (a, (a + d) mod 4)) (pair q (int_range 1 3)) in
    let op =
      frequency
        [
          (3, map (fun (a, b) -> { Engine.gate = Gate.SWAP; op_qubits = [ a; b ]; tag = Engine.Swap_plain }) pair);
          (3, map (fun (a, b) -> { Engine.gate = Gate.CX; op_qubits = [ a; b ]; tag = Engine.Not_swap }) pair);
          ( 4,
            map2
              (fun g a -> { Engine.gate = g; op_qubits = [ a ]; tag = Engine.Not_swap })
              (oneof [ oneofl Gate.[ H; T; SX; X; Measure ]; map (fun t -> Gate.RZ t) (float_range 0.0 6.28) ])
              q );
          (1, return { Engine.gate = Gate.Barrier 4; op_qubits = [ 0; 1; 2; 3 ]; tag = Engine.Not_swap });
        ]
    in
    list_size (int_range 0 40) op)

let prop_plain_finalize_is_template =
  QCheck.Test.make ~name:"plain finalize = decompose_swaps" ~count:300
    (QCheck.make gen_plain_ops) (fun ops ->
      Nassc.finalize ops
      = Circuit.instrs (Sabre.decompose_swaps (Engine.to_circuit ~n_phys:4 ops)))

(* ---------- pipeline ---------- *)

let test_pipeline_end_to_end_semantics () =
  let rng = Rng.create 57 in
  for trial = 1 to 5 do
    let c = random_2q_circuit rng 4 20 in
    let coupling = Topology.Devices.linear 5 in
    let params = { Engine.default_params with seed = 200 + trial } in
    List.iter
      (fun router ->
        let r = Pipeline.transpile ~params ~router coupling c in
        check "basis output" true (Qpasses.Basis.check r.circuit);
        match r.final_layout with
        | Some fl -> check "pipeline preserves semantics" true
            (routing_preserves_semantics r.circuit fl c)
        | None -> Alcotest.fail "expected layout")
      [ Pipeline.Sabre_router; Pipeline.Nassc_router Nassc.default_config ]
  done

(* [transpile ~trials:1] is [route] between the two optimization bundles,
   for every registered router on the routing-golden corpus *)
let test_transpile_is_route_between_bundles () =
  let params = { Engine.default_params with seed = Golden_defs.seed } in
  List.iter
    (fun (cname, c) ->
      List.iter
        (fun (tname, coupling) ->
          List.iter
            (fun (rname, router) ->
              let t = Pipeline.transpile ~params ~trials:1 ~router coupling c in
              let r =
                Pipeline.route ~router coupling
                  (Pipeline.pre_optimize (Pipeline.lower_to_2q c))
                  params
              in
              let where = Printf.sprintf "%s/%s/%s" cname tname rname in
              check (where ^ ": circuit") true
                (Circuit.bit_equal t.circuit (Pipeline.post_optimize r.circuit));
              checki (where ^ ": swaps") r.n_swaps t.n_swaps;
              check (where ^ ": layouts") true
                (t.initial_layout = Some r.initial_layout
                && t.final_layout = Some r.final_layout))
            Pipeline.routers)
        (Golden_defs.topologies ()))
    (Golden_defs.circuits ())

let test_pipeline_baseline_no_layout () =
  let c = Qbench.Generators.grover 4 in
  let r = Pipeline.transpile ~router:Pipeline.Full_connectivity Topology.Devices.montreal c in
  check "no layout for baseline" true (r.initial_layout = None);
  checki "no swaps" 0 r.n_swaps;
  check "basis" true (Qpasses.Basis.check r.circuit)

let test_pipeline_grover4_calibration () =
  (* the original-circuit CNOT count for grover-4 must match the paper: 84 *)
  let c = Qbench.Generators.grover 4 in
  let r = Pipeline.transpile ~router:Pipeline.Full_connectivity Topology.Devices.montreal c in
  check "grover4 original cx close to paper (84)" true (abs (r.cx_total - 84) <= 8)

let test_pipeline_routers_beat_nothing () =
  (* routed cx >= original cx *)
  let c = Qbench.Generators.vqe 8 in
  let coupling = Topology.Devices.montreal in
  let base = Pipeline.transpile ~router:Pipeline.Full_connectivity coupling c in
  let sabre = Pipeline.transpile ~router:Pipeline.Sabre_router coupling c in
  check "routing adds gates" true (sabre.cx_total >= base.cx_total)

let test_router_registry () =
  let names = List.map fst Pipeline.routers in
  check "golden column order" true
    (names = [ "sabre"; "nassc"; "astar"; "sabre-ha"; "nassc-ha"; "hybrid" ]);
  List.iter
    (fun (name, router) ->
      check (name ^ " round-trips") true (Pipeline.router_of_name name = Ok router))
    (("none", Pipeline.Full_connectivity) :: Pipeline.routers);
  match Pipeline.router_of_name "qiskit" with
  | Ok _ -> Alcotest.fail "unknown name accepted"
  | Error e ->
      let mentions w =
        let n = String.length w in
        let rec at i = i + n <= String.length e && (String.sub e i n = w || at (i + 1)) in
        at 0
      in
      List.iter
        (fun name -> check ("error names " ^ name) true (mentions name))
        ("none" :: "qiskit" :: names)

let test_nassc_beats_sabre_on_average () =
  (* headline claim, on a seed-averaged small set; generous margin *)
  let coupling = Topology.Devices.linear 10 in
  let total router =
    List.fold_left
      (fun acc seed ->
        let params = { Engine.default_params with seed } in
        let c = Qbench.Generators.vqe 8 in
        let r = Pipeline.transpile ~params ~router coupling c in
        acc + r.cx_total)
      0 [ 1; 2; 3 ]
  in
  let s = total Pipeline.Sabre_router in
  let n = total (Pipeline.Nassc_router Nassc.default_config) in
  check "nassc no worse than sabre on vqe8/linear" true (n <= s)

(* ---------- HA distance ---------- *)

let test_ha_routing_valid () =
  let coupling = Topology.Devices.montreal in
  let cal = Topology.Calibration.generate coupling in
  let rng = Rng.create 71 in
  let c = random_2q_circuit rng 6 40 in
  let r = route ~calibration:cal Pipeline.Sabre_ha coupling c in
  check "ha-routed valid" true (Sabre.check_routed coupling r.circuit);
  let rn = route ~calibration:cal (Pipeline.Nassc_ha Nassc.default_config) coupling c in
  check "nassc-ha valid" true (Sabre.check_routed coupling rn.circuit)

(* ---------- metrics ---------- *)

let test_metrics_deltas () =
  (* Table I's footnote: the Delta columns are 1 - NASSC/SABRE, of totals
     (150 against 200) and of CNOTs added to a 100-CNOT original *)
  Alcotest.(check (float 1e-9)) "delta total" 0.25 (Metrics.delta 150.0 200.0);
  Alcotest.(check (float 1e-9)) "delta add" 0.5 (Metrics.delta (150.0 -. 100.0) (200.0 -. 100.0));
  Alcotest.(check (float 1e-9)) "nassc worse" (-0.5) (Metrics.delta 3.0 2.0);
  Alcotest.(check (float 1e-9)) "zero sabre" 0.0 (Metrics.delta 5.0 0.0)

let test_metrics_geomean () =
  Alcotest.(check (float 1e-9)) "geomean of zeros" 0.0 (Metrics.geometric_mean [ 0.0; 0.0 ]);
  let g = Metrics.geometric_mean [ 0.5; 0.5 ] in
  Alcotest.(check (float 1e-9)) "geomean of halves" 0.5 g;
  (* mixed signs stay sane *)
  let g2 = Metrics.geometric_mean [ 0.5; -0.5 ] in
  check "mixed in range" true (g2 > -0.5 && g2 < 0.5)

let () =
  Alcotest.run "qroute"
    [
      ( "engine",
        [
          Alcotest.test_case "full connectivity" `Quick test_fully_connected_no_swaps;
          Alcotest.test_case "rejects wide gates" `Quick test_route_rejects_wide_gates;
          Alcotest.test_case "layout validation" `Quick test_mapping_layout_validation;
          Alcotest.test_case "candidates in stdlib order" `Quick test_candidates_match_stdlib;
          Alcotest.test_case "find_layout reference" `Quick test_find_layout_matches_reference;
          Alcotest.test_case "find_layout needs zero_bonus" `Quick test_find_layout_rejects_bonus;
          Alcotest.test_case "two plans per transpile" `Quick test_two_plans_per_transpile;
        ] );
      ( "sabre",
        [
          Alcotest.test_case "validity" `Quick test_sabre_validity;
          Alcotest.test_case "semantics" `Quick test_sabre_semantics;
          Alcotest.test_case "layout permutation" `Quick test_sabre_layout_is_permutation;
        ] );
      ( "nassc",
        [
          Alcotest.test_case "validity" `Quick test_nassc_validity;
          Alcotest.test_case "semantics" `Quick test_nassc_semantics;
          Alcotest.test_case "swaps decomposed" `Quick test_nassc_no_swap_gates_left;
          Alcotest.test_case "disabled equals sabre" `Quick test_nassc_disabled_equals_sabre;
        ] );
      ( "finalize",
        [
          Alcotest.test_case "plain" `Quick test_finalize_plain;
          Alcotest.test_case "oriented moves 1q" `Quick test_finalize_oriented_moves_1q;
          Alcotest.test_case "random semantics" `Quick test_finalize_oriented_semantics_random;
          QCheck_alcotest.to_alcotest prop_plain_finalize_is_template;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "end to end semantics" `Quick test_pipeline_end_to_end_semantics;
          Alcotest.test_case "baseline" `Quick test_pipeline_baseline_no_layout;
          Alcotest.test_case "grover4 calibration" `Quick test_pipeline_grover4_calibration;
          Alcotest.test_case "routing adds gates" `Quick test_pipeline_routers_beat_nothing;
          Alcotest.test_case "router registry" `Quick test_router_registry;
          Alcotest.test_case "transpile = route between bundles" `Quick
            test_transpile_is_route_between_bundles;
          Alcotest.test_case "nassc vs sabre" `Quick test_nassc_beats_sabre_on_average;
        ] );
      ("ha", [ Alcotest.test_case "noise-aware routing" `Quick test_ha_routing_valid ]);
      ( "metrics",
        [
          Alcotest.test_case "deltas" `Quick test_metrics_deltas;
          Alcotest.test_case "geomean" `Quick test_metrics_geomean;
        ] );
    ]
