(* The axes of the benchmark matrix (Experiment.matrix): parameterized
   circuit families and the topologies they are routed on. *)

let instances ~quick =
  let inst family tag n build = Suite.entry (family ^ " " ^ tag) n build in
  if quick then
    [
      inst "random" "g30-d0.40-5q" 5 (fun () ->
          Generators.random_density ~seed:11 ~gates:30 ~density:0.4 5);
      inst "qaoa-er" "p1-e0.50-5q" 5 (fun () ->
          Generators.qaoa_erdos_renyi ~seed:11 ~p:1 ~edge_prob:0.5 5);
      inst "brickwork" "c4-5q" 5 (fun () -> Generators.supremacy_brickwork ~seed:11 ~cycles:4 5);
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
        inst "brickwork" "c6-8q" 8 (fun () -> Generators.supremacy_brickwork ~seed:11 ~cycles:6 8);
        inst "brickwork" "c6-12q" 12 (fun () ->
            Generators.supremacy_brickwork ~seed:11 ~cycles:6 12);
        inst "ghz" "8q" 8 (fun () -> Generators.ghz_chain 8);
        inst "ghz" "12q" 12 (fun () -> Generators.ghz_chain 12);
        inst "ladder" "r3-8q" 8 (fun () -> Generators.cx_ladder ~rounds:3 8);
        inst "ladder" "r3-12q" 12 (fun () -> Generators.cx_ladder ~rounds:3 12);
      ]

let topologies ~quick =
  if quick then
    [
      ("line5", Topology.Devices.linear 5);
      ("grid2x3", Topology.Devices.grid 2 3);
      ("heavyhex2x2", Topology.Devices.heavy_hex 2 2);
    ]
  else
    [
      ("line12", Topology.Devices.linear 12);
      ("ring12", Topology.Devices.ring 12);
      ("grid3x4", Topology.Devices.grid 3 4);
      ("heavyhex2x3", Topology.Devices.heavy_hex 2 3);
      ("montreal", Topology.Devices.montreal);
    ]
