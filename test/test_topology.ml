open Topology

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- coupling ---------- *)

let test_create_validates () =
  check "self-loop rejected" true
    (try
       ignore (Coupling.create 3 [ (1, 1) ]);
       false
     with Invalid_argument _ -> true);
  check "out of range rejected" true
    (try
       ignore (Coupling.create 3 [ (0, 5) ]);
       false
     with Invalid_argument _ -> true);
  check "duplicate rejected" true
    (try
       ignore (Coupling.create 3 [ (0, 1); (1, 0) ]);
       false
     with Invalid_argument _ -> true)

let test_linear_structure () =
  let c = Devices.linear 6 in
  checki "qubits" 6 (Coupling.n_qubits c);
  checki "edges" 5 (List.length (Coupling.edges c));
  checki "distance ends" 5 (Coupling.distance c 0 5);
  checki "diameter" 5 (Coupling.diameter c);
  check "adjacent" true (Coupling.connected c 2 3);
  check "not adjacent" false (Coupling.connected c 0 2);
  checki "endpoint degree" 1 (Coupling.degree c 0);
  checki "middle degree" 2 (Coupling.degree c 3)

let test_grid_structure () =
  let c = Devices.grid 3 4 in
  checki "qubits" 12 (Coupling.n_qubits c);
  (* edges: 3*3 horizontal + 2*4 vertical = 17 *)
  checki "edges" 17 (List.length (Coupling.edges c));
  checki "corner to corner" 5 (Coupling.distance c 0 11);
  check "row neighbors" true (Coupling.connected c 0 1);
  check "col neighbors" true (Coupling.connected c 0 4);
  check "diagonal not coupled" false (Coupling.connected c 0 5)

let test_montreal_structure () =
  let c = Devices.montreal in
  checki "27 qubits" 27 (Coupling.n_qubits c);
  checki "28 edges" 28 (List.length (Coupling.edges c));
  check "connected graph" true (Coupling.is_connected_graph c);
  (* heavy-hex degree profile: no vertex exceeds degree 3 *)
  let max_deg = List.init 27 (fun q -> Coupling.degree c q) |> List.fold_left max 0 in
  checki "max degree 3" 3 max_deg;
  (* spot-check published adjacencies *)
  check "1-4 coupled" true (Coupling.connected c 1 4);
  check "25-26 coupled" true (Coupling.connected c 25 26);
  check "0-2 not coupled" false (Coupling.connected c 0 2)

let test_ring_structure () =
  let c = Devices.ring 8 in
  checki "edges" 8 (List.length (Coupling.edges c));
  checki "diameter" 4 (Coupling.diameter c);
  checki "wraparound distance" 1 (Coupling.distance c 0 7);
  check "two shortest paths exist" true (Coupling.distance c 0 4 = 4)

let test_fully_connected () =
  let c = Devices.fully_connected 6 in
  checki "edges" 15 (List.length (Coupling.edges c));
  checki "diameter" 1 (Coupling.diameter c)

let test_shortest_path_properties () =
  let c = Devices.montreal in
  let path = Coupling.shortest_path c 0 26 in
  checki "path length = distance + 1" (Coupling.distance c 0 26 + 1) (List.length path);
  check "starts at src" true (List.hd path = 0);
  check "ends at dst" true (List.nth path (List.length path - 1) = 26);
  let rec adjacent_pairs = function
    | a :: (b :: _ as rest) -> Coupling.connected c a b && adjacent_pairs rest
    | _ -> true
  in
  check "consecutive coupled" true (adjacent_pairs path)

let test_distance_symmetry_triangle () =
  let c = Devices.montreal in
  for _ = 1 to 40 do
    let rng = Mathkit.Rng.create 5 in
    let a = Mathkit.Rng.int rng 27 and b = Mathkit.Rng.int rng 27 and m = Mathkit.Rng.int rng 27 in
    checki "symmetric" (Coupling.distance c a b) (Coupling.distance c b a);
    check "triangle" true
      (Coupling.distance c a b <= Coupling.distance c a m + Coupling.distance c m b)
  done

let test_by_name () =
  checki "montreal" 27 (Coupling.n_qubits (Devices.by_name "montreal" 0));
  checki "linear" 10 (Coupling.n_qubits (Devices.by_name "linear" 10));
  checki "grid side" 25 (Coupling.n_qubits (Devices.by_name "grid" 25));
  checki "ring" 8 (Coupling.n_qubits (Devices.by_name "ring" 8));
  checki "eagle" 127 (Coupling.n_qubits (Devices.by_name "eagle" 0));
  checki "osprey" 433 (Coupling.n_qubits (Devices.by_name "osprey" 0));
  check "unknown raises" true
    (try
       ignore (Devices.by_name "torus" 9);
       false
     with Invalid_argument _ -> true)

(* ---------- IBM heavy-hex lattices (distance-parameterized) ---------- *)

let test_heavy_hex_ibm () =
  (* the published qubit-count formula: n(d) = 10d^2 + 12d + 1 *)
  List.iter
    (fun d ->
      let c = Devices.heavy_hex_ibm ~distance:d in
      checki
        (Printf.sprintf "d=%d qubit count" d)
        ((10 * d * d) + (12 * d) + 1)
        (Coupling.n_qubits c);
      check (Printf.sprintf "d=%d connected" d) true (Coupling.is_connected_graph c);
      let n = Coupling.n_qubits c in
      let max_deg = List.init n (Coupling.degree c) |> List.fold_left max 0 in
      check (Printf.sprintf "d=%d degree <= 3" d) true (max_deg <= 3))
    [ 1; 2; 3; 4 ];
  let eagle = Devices.eagle () in
  checki "eagle qubits" 127 (Coupling.n_qubits eagle);
  checki "eagle edges" 144 (List.length (Coupling.edges eagle));
  let osprey = Devices.osprey () in
  checki "osprey qubits" 433 (Coupling.n_qubits osprey);
  checki "osprey edges" 504 (List.length (Coupling.edges osprey));
  check "invalid distance raises" true
    (try
       ignore (Devices.heavy_hex_ibm ~distance:0);
       false
     with Invalid_argument _ -> true)

(* ---------- lazy distance rows ---------- *)

let test_lazy_distance_rows () =
  (* a freshly built coupling has no BFS rows; queries materialize exactly
     the source rows they touch *)
  let c = Devices.heavy_hex_ibm ~distance:3 in
  checki "fresh coupling: no rows" 0 (Coupling.rows_materialized c);
  let d01 = Coupling.distance c 0 1 in
  check "distance sane" true (d01 >= 1);
  checki "one query: one row" 1 (Coupling.rows_materialized c);
  ignore (Coupling.distance c 0 100);
  checki "same source reuses the row" 1 (Coupling.rows_materialized c);
  ignore (Coupling.distance c 5 0);
  checki "new source adds a row" 2 (Coupling.rows_materialized c);
  (* lazy hops agree with the dense matrix everywhere on a small device *)
  let small = Devices.grid 3 4 in
  let dense = Distmat.hops small and lz = Distmat.hops_lazy small in
  check "lazy matrix not dense" false (Distmat.is_dense lz);
  check "dense matrix is dense" true (Distmat.is_dense dense);
  let n = Coupling.n_qubits small in
  let agree = ref true in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Distmat.get dense a b <> Distmat.get lz a b then agree := false
    done
  done;
  check "lazy = dense hop distances" true !agree;
  checki "all rows materialized after the sweep" n (Distmat.rows_materialized lz);
  check "raw_opt: dense exposes the flat array" true (Distmat.raw_opt dense <> None);
  check "raw_opt: lazy has none" true (Distmat.raw_opt lz = None);
  check "raw on lazy raises" true
    (try
       ignore (Distmat.raw lz);
       false
     with Invalid_argument _ -> true)

(* ---------- calibration ---------- *)

let test_calibration_deterministic () =
  let c = Devices.montreal in
  let a = Calibration.generate ~seed:7 c and b = Calibration.generate ~seed:7 c in
  List.iter
    (fun (x, y) ->
      Alcotest.(check (float 0.0)) "same cx error" (Calibration.cx_error a x y)
        (Calibration.cx_error b x y))
    (Coupling.edges c)

let test_calibration_ranges () =
  let c = Devices.montreal in
  let cal = Calibration.generate c in
  List.iter
    (fun (a, b) ->
      let e = Calibration.cx_error cal a b in
      check "cx error in montreal band" true (e >= 0.005 && e <= 0.025);
      let t = Calibration.cx_time cal a b in
      check "cx time in band" true (t >= 250e-9 && t <= 550e-9))
    (Coupling.edges c);
  for q = 0 to 26 do
    let r = Calibration.readout_error cal q in
    check "readout in band" true (r >= 0.01 && r <= 0.04);
    let s = Calibration.sq_error cal q in
    check "1q error in band" true (s >= 2e-4 && s <= 5e-4)
  done

let test_calibration_uncoupled_raises () =
  let c = Devices.linear 4 in
  let cal = Calibration.generate c in
  check "uncoupled raises" true
    (try
       ignore (Calibration.cx_error cal 0 2);
       false
     with Invalid_argument _ -> true)

let test_noise_distance_matrix () =
  let c = Devices.linear 5 in
  let cal = Calibration.generate c in
  let d = Distmat.get (Calibration.noise_distmat cal) in
  (* diagonal zero, symmetric, monotone along the line *)
  for i = 0 to 4 do
    Alcotest.(check (float 1e-12)) "diag zero" 0.0 (d i i)
  done;
  check "symmetric" true (Float.abs (d 0 3 -. d 3 0) < 1e-12);
  check "monotone" true (d 0 1 < d 0 2 && d 0 2 < d 0 4);
  (* with alpha = (0, 0, 1) the matrix reduces to hop counts *)
  let hops = Calibration.noise_distmat ~alpha1:0.0 ~alpha2:0.0 ~alpha3:1.0 cal in
  Alcotest.(check (float 1e-9)) "pure hops" 3.0 (Distmat.get hops 0 3)

let test_noise_distance_prefers_good_edges () =
  (* a triangle where one 2-hop detour is much cleaner than the direct edge
     could flip preference only if error dominates; with default alphas the
     direct edge (weight ~1 hop) still wins, but ordering must follow edge
     quality for equal hop counts *)
  let c = Coupling.create 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let cal = Calibration.generate ~seed:3 c in
  let d = Distmat.get (Calibration.noise_distmat cal) in
  let via1 = d 0 1 +. d 1 3 and via2 = d 0 2 +. d 2 3 in
  check "path choice reflects errors" true (Float.abs (d 0 3 -. Float.min via1 via2) < 1e-9)

let () =
  Alcotest.run "topology"
    [
      ( "coupling",
        [
          Alcotest.test_case "validation" `Quick test_create_validates;
          Alcotest.test_case "linear" `Quick test_linear_structure;
          Alcotest.test_case "grid" `Quick test_grid_structure;
          Alcotest.test_case "montreal" `Quick test_montreal_structure;
          Alcotest.test_case "ring" `Quick test_ring_structure;
          Alcotest.test_case "fully connected" `Quick test_fully_connected;
          Alcotest.test_case "shortest path" `Quick test_shortest_path_properties;
          Alcotest.test_case "distance properties" `Quick test_distance_symmetry_triangle;
          Alcotest.test_case "by name" `Quick test_by_name;
          Alcotest.test_case "heavy-hex ibm" `Quick test_heavy_hex_ibm;
          Alcotest.test_case "lazy distance rows" `Quick test_lazy_distance_rows;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "deterministic" `Quick test_calibration_deterministic;
          Alcotest.test_case "ranges" `Quick test_calibration_ranges;
          Alcotest.test_case "uncoupled raises" `Quick test_calibration_uncoupled_raises;
          Alcotest.test_case "noise distance" `Quick test_noise_distance_matrix;
          Alcotest.test_case "noise distance paths" `Quick test_noise_distance_prefers_good_edges;
        ] );
    ]
