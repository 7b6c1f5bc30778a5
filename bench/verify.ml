(* Verification throughput (`bench --only verify [--out FILE]`).

   Times the symbolic equivalence certifier (Qverify.verify_routed) on
   routed output across circuit scales, up to the 27-qubit montreal
   device where the statevector oracle is out of reach and the tableau
   checker is the only equivalence evidence.  Each cell routes once with
   SABRE and reports the verification verdict, wall time (best of
   [repeats]) and throughput in routed gates per second, then writes a
   schema-versioned BENCH_<git-sha>-verify.json snapshot, the
   verification sibling of the regress and gap snapshots. *)

module J = Qbench.Jsonlite
module S = Qbench.Snapshot

let schema_version = 1
let kind = "nassc-bench-verify"
let repeats = 3

type row = {
  circuit : string;
  topology : string;
  n_logical : int;
  n_physical : int;
  gates : int;  (** non-directive instructions the certifier swept *)
  verdict : string;
  wall_s : float;  (** best of [repeats] *)
  gates_per_sec : float;
}

let cells =
  [
    ( "ghz12",
      "linear13",
      Topology.Devices.linear 13,
      fun () -> Qbench.Generators.ghz_chain 12 );
    ( "dense6",
      "grid2x4",
      Topology.Devices.grid 2 4,
      fun () -> Qbench.Generators.random_density ~seed:7 ~gates:60 ~density:0.5 6 );
    ( "qaoa10",
      "ring12",
      Topology.Devices.ring 12,
      fun () -> Qbench.Generators.qaoa_erdos_renyi ~seed:7 ~p:2 ~edge_prob:0.4 10 );
    ( "dense18",
      "montreal",
      Topology.Devices.montreal,
      fun () -> Qbench.Generators.random_density ~seed:3 ~gates:120 ~density:0.35 18 );
    (* the acceptance cell: 27 physical wires, 200+ logical gates *)
    ( "dense20",
      "montreal",
      Topology.Devices.montreal,
      fun () -> Qbench.Generators.random_density ~seed:3 ~gates:220 ~density:0.35 20 );
  ]

let run ?(seed = 11) ~out () =
  Printf.printf "=== symbolic verification throughput (seed %d, best of %d) ===\n%!"
    seed repeats;
  let params = { Qroute.Engine.default_params with seed } in
  let rows =
    List.map
      (fun (cname, tname, topo, build) ->
        let c = build () in
        let r =
          Qroute.Pipeline.transpile ~params ~trials:1
            ~router:Qroute.Pipeline.Sabre_router topo c
        in
        let verify () =
          Qverify.verify_routed ~original:c ~routed:r.Qroute.Pipeline.circuit
            ?initial_layout:r.Qroute.Pipeline.initial_layout
            ?final_layout:r.Qroute.Pipeline.final_layout ()
        in
        let best = ref infinity in
        let v = ref (verify ()) in
        for _ = 1 to repeats do
          let t0 = Unix.gettimeofday () in
          v := verify ();
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt
        done;
        let gates =
          match !v with
          | Qverify.Equivalent cert -> cert.Qverify.gates
          | _ -> Qcircuit.Circuit.size r.Qroute.Pipeline.circuit
        in
        let row =
          {
            circuit = cname;
            topology = tname;
            n_logical = Qcircuit.Circuit.n_qubits c;
            n_physical = Topology.Coupling.n_qubits topo;
            gates;
            verdict = Qverify.verdict_name !v;
            wall_s = !best;
            gates_per_sec = float_of_int gates /. !best;
          }
        in
        Printf.printf "  %-8s %-10s %3dq->%2dq %5d gates  %-12s %8.4fs %10.0f gates/s\n%!"
          row.circuit row.topology row.n_logical row.n_physical row.gates
          row.verdict row.wall_s row.gates_per_sec;
        row)
      cells
  in
  let row_json r =
    J.Obj
      [
        ("circuit", J.Str r.circuit);
        ("topology", J.Str r.topology);
        ("n_logical", J.int r.n_logical);
        ("n_physical", J.int r.n_physical);
        ("gates", J.int r.gates);
        ("verdict", J.Str r.verdict);
        ("wall_s", J.Num r.wall_s);
        ("gates_per_sec", J.Num r.gates_per_sec);
      ]
  in
  let doc =
    S.document ~schema_version ~kind
      [ ("seed", J.int seed); ("rows", J.List (List.map row_json rows)) ]
  in
  Printf.printf "snapshot: %s\n" (S.write ?out ~suffix:"-verify" doc);
  (* the acceptance bar: device-scale circuits certify in under a second *)
  List.iter
    (fun r ->
      if r.verdict <> "equivalent" then
        Printf.printf "WARNING: %s/%s did not certify (%s)\n" r.circuit r.topology
          r.verdict
      else if r.wall_s >= 1.0 then
        Printf.printf "WARNING: %s/%s verified in %.3fs (budget 1s)\n" r.circuit
          r.topology r.wall_s)
    rows
