(* Full benchmark x router x topology integration matrix: every non-heavy
   paper benchmark through every router on every evaluated topology, with
   validity and metric-sanity oracles.  This is the "does the whole stack
   hold together" net under the experiment harness. *)

open Qcircuit

let check = Alcotest.(check bool)

let topologies =
  [
    ("montreal", Topology.Devices.montreal);
    ("linear25", Topology.Devices.linear 25);
    ("grid5x5", Topology.Devices.grid 5 5);
  ]

let routers = Qroute.Pipeline.select_routers [ "sabre"; "nassc"; "astar" ]

let entries = Qbench.Suite.small_suite

let test_matrix () =
  List.iter
    (fun (topo_name, coupling) ->
      List.iter
        (fun (e : Qbench.Suite.entry) ->
          let circuit = e.build () in
          let base =
            Qroute.Pipeline.transpile ~router:Qroute.Pipeline.Full_connectivity coupling
              circuit
          in
          check
            (Printf.sprintf "%s baseline positive depth" e.name)
            true (base.depth > 0 || Circuit.size circuit = 0);
          List.iter
            (fun (router_name, router) ->
              let label = Printf.sprintf "%s/%s/%s" topo_name router_name e.name in
              let r = Qroute.Pipeline.transpile ~router coupling circuit in
              check (label ^ " valid") true (Qroute.Sabre.check_routed coupling r.circuit);
              check (label ^ " basis") true (Qpasses.Basis.check r.circuit);
              check (label ^ " no fewer cx than baseline") true
                (r.cx_total >= base.cx_total - 2);
              check (label ^ " layouts present") true
                (r.initial_layout <> None && r.final_layout <> None);
              (* final layout must be an injection into the device *)
              match r.final_layout with
              | Some fl ->
                  let distinct = List.sort_uniq compare (Array.to_list fl) in
                  check (label ^ " layout injective") true
                    (List.length distinct = Array.length fl
                    && List.for_all
                         (fun p -> p >= 0 && p < Topology.Coupling.n_qubits coupling)
                         distinct)
              | None -> Alcotest.fail (label ^ " missing layout"))
            routers)
        entries)
    topologies

(* seed stability: same seed, same result; different seed, usually different *)
let test_determinism () =
  let coupling = Topology.Devices.montreal in
  let c = Qbench.Generators.vqe 8 in
  let run seed =
    let params = { Qroute.Engine.default_params with seed } in
    (Qroute.Pipeline.transpile ~params
       ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config)
       coupling c)
      .cx_total
  in
  Alcotest.(check int) "seed 5 deterministic" (run 5) (run 5);
  Alcotest.(check int) "seed 9 deterministic" (run 9) (run 9)

(* the calibration exactness claims of Generators must survive the whole
   optimizing pipeline on full connectivity (the table's CNOT_total column) *)
let test_baseline_counts_stable () =
  let expect =
    [ ("VQE 8-qubits", 84); ("VQE 12-qubits", 198); ("BV 19-qubits", 18);
      ("QFT 15-qubits", 210); ("Grover 4-qubits", 84); ("Adder 10-qubits", 65) ]
  in
  List.iter
    (fun (name, cx) ->
      let e = Qbench.Suite.find name in
      let r =
        Qroute.Pipeline.transpile ~router:Qroute.Pipeline.Full_connectivity
          Topology.Devices.montreal (e.build ())
      in
      check
        (Printf.sprintf "%s baseline %d ~ paper %d" name r.cx_total cx)
        true
        (abs (r.cx_total - cx) <= max 3 (cx / 10)))
    expect

let () =
  Alcotest.run "integration_matrix"
    [
      ( "matrix",
        [
          Alcotest.test_case "benchmark x router x topology" `Slow test_matrix;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "baseline counts" `Quick test_baseline_counts_stable;
        ] );
    ]
