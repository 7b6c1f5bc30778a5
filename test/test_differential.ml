(* Differential testing of the full transpile pipeline: for random logical
   circuits on every topology family from the paper's evaluation, the
   NASSC-routed and SABRE-routed outputs must both be statevector-equivalent
   to the original circuit (Qsim.Equiv.routed_equal), and equivalent to each
   other's logical semantics by transitivity. *)

open Mathkit
open Qcircuit
open Qgate

let check = Alcotest.(check bool)

(* random 4-6 qubit logical circuits over a gate set that exercises 1q
   optimization, commutation and 2q-block collection *)
let random_circuit seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 3 in
  let b = Circuit.Builder.create n in
  let len = 10 + Rng.int rng 25 in
  for _ = 1 to len do
    match Rng.int rng 8 with
    | 0 -> Circuit.Builder.add b Gate.H [ Rng.int rng n ]
    | 1 -> Circuit.Builder.add b (Gate.RZ (Rng.float rng 6.28)) [ Rng.int rng n ]
    | 2 -> Circuit.Builder.add b Gate.SX [ Rng.int rng n ]
    | 3 -> Circuit.Builder.add b Gate.T [ Rng.int rng n ]
    | 4 ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b (Gate.CP (Rng.float rng 3.0)) [ a; c ]
    | _ ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b Gate.CX [ a; c ]
  done;
  Circuit.Builder.circuit b

(* the four topology families of Figure 10, sized to fit 6 logical qubits
   while keeping statevector equivalence cheap *)
let topologies =
  [
    ("linear", Topology.Devices.linear 7);
    ("ring", Topology.Devices.ring 8);
    ("grid", Topology.Devices.grid 2 4);
    ("heavy-hex", Topology.Devices.heavy_hex 2 2);
  ]

let routers = Qroute.Pipeline.select_routers [ "sabre"; "nassc"; "hybrid" ]

let equivalent_after ~router ~coupling c seed =
  let params = { Qroute.Engine.default_params with seed = 1 + (seed mod 997) } in
  let r = Qroute.Pipeline.transpile ~params ~router coupling c in
  match r.final_layout with
  | None -> false
  | Some fl ->
      let dense =
        Qsim.Equiv.routed_equal ~logical:c ~routed:r.circuit ~final_layout:fl
      in
      (* cross-check the symbolic certifier against the statevector oracle
         on every differential cell: Qverify may abstain (Unknown), but a
         decisive verdict must agree with the dense answer *)
      let agrees =
        match
          Qverify.verify_routed ~original:c ~routed:r.circuit
            ?initial_layout:r.initial_layout ~final_layout:fl ()
        with
        | Qverify.Equivalent _ -> dense
        | Qverify.Not_equivalent _ -> not dense
        | Qverify.Unknown _ -> true
      in
      dense && agrees

(* one qcheck property per (topology, router) pair so a failure names the
   combination that broke *)
let qcheck_props =
  let gen_seed = QCheck.Gen.int_range 0 1_000_000 in
  List.concat_map
    (fun (tname, coupling) ->
      List.map
        (fun (rname, router) ->
          QCheck.Test.make
            ~name:(Printf.sprintf "differential %s on %s: routed = original" rname tname)
            ~count:8 (QCheck.make gen_seed)
            (fun seed -> equivalent_after ~router ~coupling (random_circuit seed) seed))
        routers)
    topologies

(* ---- single-gate mutations must be flagged Not_equivalent ----

   A decisive mutation: bump one non-quarter RZ angle by 0.5 (the defect
   unitary A RZ(0.5) A^dag is never scalar), or append an RZ(0.5) when the
   routed output happens to carry no such site.  On <=7 wires every residue
   cluster resolves densely, so the certifier must answer Not_equivalent —
   Unknown counts as a miss here. *)

let mutate_decisive st c =
  let n = Circuit.n_qubits c in
  let quarter a =
    let q = a /. (Float.pi /. 2.0) in
    Float.abs (q -. Float.round q) < 1e-6
  in
  let instrs = Array.of_list (Circuit.instrs c) in
  let sites =
    Array.to_list instrs
    |> List.mapi (fun i (it : Circuit.instr) -> (i, it))
    |> List.filter (fun (_, (it : Circuit.instr)) ->
           match it.Circuit.gate with Gate.RZ a -> not (quarter a) | _ -> false)
  in
  match sites with
  | [] ->
      Circuit.concat c
        (Circuit.create n [ { Circuit.gate = Gate.RZ 0.5; qubits = [ 0 ] } ])
  | sites ->
      let i, (it : Circuit.instr) = List.nth sites (Random.State.int st (List.length sites)) in
      let a = match it.Circuit.gate with Gate.RZ a -> a | _ -> 0.0 in
      Circuit.create n
        (Array.to_list
           (Array.mapi
              (fun j (x : Circuit.instr) ->
                if j = i then { x with Circuit.gate = Gate.RZ (a +. 0.5) } else x)
              instrs))

let qcheck_mutation =
  let gen_seed = QCheck.Gen.int_range 0 1_000_000 in
  QCheck.Test.make ~name:"single-gate mutation flagged Not_equivalent" ~count:12
    (QCheck.make gen_seed)
    (fun seed ->
      let c = random_circuit seed in
      let coupling = Topology.Devices.linear 7 in
      let params = { Qroute.Engine.default_params with seed = 1 + (seed mod 997) } in
      let r =
        Qroute.Pipeline.transpile ~params ~router:Qroute.Pipeline.Sabre_router
          coupling c
      in
      let bad = mutate_decisive (Random.State.make [| seed |]) r.circuit in
      match
        Qverify.verify_routed ~original:c ~routed:bad
          ?initial_layout:r.initial_layout ?final_layout:r.final_layout ()
      with
      | Qverify.Not_equivalent _ -> true
      | _ -> false)

(* ---- device scale: montreal-27, 100+ gates, symbolic-only ----

   18 logical qubits on the 27-qubit device is far beyond the statevector
   oracle; these cells exist because the symbolic certifier is the only
   equivalence evidence at this size. *)

let test_montreal_sweep () =
  let topo = Topology.Devices.montreal in
  List.iter
    (fun (rname, router) ->
      List.iter
        (fun gates ->
          let c =
            Qbench.Generators.random_density ~seed:(31 + gates) ~gates ~density:0.35 18
          in
          let params = { Qroute.Engine.default_params with seed = 5 } in
          let r = Qroute.Pipeline.transpile ~params ~router topo c in
          let v =
            Qverify.verify_routed ~original:c ~routed:r.circuit
              ?initial_layout:r.initial_layout ?final_layout:r.final_layout ()
          in
          check
            (Printf.sprintf "%s montreal %d-gate circuit certifies" rname gates)
            true
            (match v with Qverify.Equivalent _ -> true | _ -> false))
        [ 120; 200 ])
    routers

(* ---- metamorphic sweep over the benchmark-matrix families ----

   Every parameterized family that feeds `bench --only matrix`, at <=6
   qubits, through every router of the matrix (including the
   heuristic-aware and hybrid variants): the routed circuit must stay
   statevector-equivalent to the generated logical circuit on every
   topology. *)

let family_circuits =
  [
    ("random-density", fun () -> Qbench.Generators.random_density ~seed:7 ~gates:24 ~density:0.4 5);
    ("qaoa-er", fun () -> Qbench.Generators.qaoa_erdos_renyi ~seed:7 ~p:1 ~edge_prob:0.5 5);
    ("brickwork", fun () -> Qbench.Generators.supremacy_brickwork ~seed:7 ~cycles:4 5);
    ("ghz", fun () -> Qbench.Generators.ghz_chain 5);
    ("ladder", fun () -> Qbench.Generators.cx_ladder ~rounds:2 4);
  ]

let test_matrix_families_equivalent () =
  List.iter
    (fun (fname, build) ->
      let c = build () in
      List.iter
        (fun (tname, coupling) ->
          List.iter
            (fun (rname, router) ->
              check
                (Printf.sprintf "%s/%s/%s preserves semantics" fname rname tname)
                true
                (equivalent_after ~router ~coupling c 11))
            Qroute.Pipeline.routers)
        [ ("linear", Topology.Devices.linear 7); ("grid", Topology.Devices.grid 2 4) ])
    family_circuits

(* pinned regression: the same circuit through both routers, both equivalent
   to the source (hence to each other) *)
let test_routers_agree_semantically () =
  let c = random_circuit 2022 in
  List.iter
    (fun (tname, coupling) ->
      List.iter
        (fun (rname, router) ->
          check
            (Printf.sprintf "%s/%s preserves semantics" rname tname)
            true
            (equivalent_after ~router ~coupling c 2022))
        routers)
    topologies

let () =
  Alcotest.run "differential"
    [
      ( "random circuits",
        List.map QCheck_alcotest.to_alcotest (qcheck_props @ [ qcheck_mutation ])
        @ [ Alcotest.test_case "pinned circuit, all combos" `Quick
              test_routers_agree_semantically ] );
      ( "device scale",
        [
          Alcotest.test_case "montreal-27 symbolic certification" `Slow
            test_montreal_sweep;
        ] );
      ( "matrix families",
        [
          Alcotest.test_case "all families x all matrix routers" `Quick
            test_matrix_families_equivalent;
        ] );
    ]
