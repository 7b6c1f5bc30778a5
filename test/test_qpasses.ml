open Mathkit
open Qgate
open Qpasses

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let rng0 () = Rng.create 20220704

(* ---------- Weyl / KAK ---------- *)

let test_magic_signatures () =
  (* the hardcoded diagonal signatures must match a direct computation *)
  let e = Weyl.magic_basis in
  let ed = Mat.adjoint e in
  let pauli = function
    | `X -> Unitary.of_gate Gate.X
    | `Y -> Unitary.of_gate Gate.Y
    | `Z -> Unitary.of_gate Gate.Z
  in
  let diag_of p expected =
    let pp = Mat.kron (pauli p) (pauli p) in
    let d = Mat.mul ed (Mat.mul pp e) in
    for i = 0 to 3 do
      for j = 0 to 3 do
        if i <> j then check "off-diagonal zero" true (Cx.abs (Mat.get d i j) < 1e-12)
      done;
      check "signature" true (Cx.approx (Mat.get d i i) (Cx.re expected.(i)))
    done
  in
  diag_of `X [| 1.0; 1.0; -1.0; -1.0 |];
  diag_of `Y [| -1.0; 1.0; -1.0; 1.0 |];
  diag_of `Z [| 1.0; -1.0; -1.0; 1.0 |]

let test_canonical_gate_unitary () =
  let n = Weyl.canonical_gate 0.3 0.2 0.1 in
  check "canonical gate unitary" true (Mat.is_unitary n);
  check "canonical gate at origin" true
    (Mat.equal_up_to_phase (Weyl.canonical_gate 0.0 0.0 0.0) (Mat.identity 4))

let test_decompose_reconstruct_random () =
  let rng = rng0 () in
  for _ = 1 to 40 do
    let u = Randmat.unitary rng 4 in
    let r = Weyl.decompose u in
    check "reconstruct" true (Mat.equal_up_to_phase (Weyl.reconstruct r) u);
    (* exact phase too *)
    check "reconstruct exact" true (Mat.frobenius_distance (Weyl.reconstruct r) u < 1e-6)
  done

let test_decompose_standard_gates () =
  let cases =
    [ Gate.CX; Gate.CZ; Gate.SWAP; Gate.CY; Gate.CH; Gate.CP 0.7; Gate.CRX 1.1;
      Gate.RZZ 0.4 ]
  in
  List.iter
    (fun g ->
      let u = Unitary.of_gate g in
      let r = Weyl.decompose u in
      check
        (Format.asprintf "%a reconstruct" Gate.pp g)
        true
        (Mat.frobenius_distance (Weyl.reconstruct r) u < 1e-6))
    cases

let test_chamber_membership () =
  let rng = rng0 () in
  let q = Float.pi /. 4.0 in
  for _ = 1 to 40 do
    let u = Randmat.unitary rng 4 in
    let x, y, z = Weyl.coords u in
    check "x <= pi/4" true (x <= q +. 1e-9);
    check "x >= y" true (x >= y -. 1e-9);
    check "y >= |z|" true (y >= Float.abs z -. 1e-9);
    check "y >= 0" true (y >= -1e-9)
  done

let test_known_coords () =
  let q = Float.pi /. 4.0 in
  let close3 (a, b, c) (a', b', c') =
    Float.abs (a -. a') < 1e-7 && Float.abs (b -. b') < 1e-7 && Float.abs (c -. c') < 1e-7
  in
  check "cx coords" true (close3 (Weyl.coords (Unitary.of_gate Gate.CX)) (q, 0.0, 0.0));
  check "cz coords" true (close3 (Weyl.coords (Unitary.of_gate Gate.CZ)) (q, 0.0, 0.0));
  check "swap coords" true (close3 (Weyl.coords (Unitary.of_gate Gate.SWAP)) (q, q, q));
  check "iswap-like dcx?" true
    (close3 (Weyl.coords (Mat.identity 4)) (0.0, 0.0, 0.0));
  (* local products have zero coords *)
  let rng = rng0 () in
  let local = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
  check "local coords" true (close3 (Weyl.coords local) (0.0, 0.0, 0.0))

let test_coords_local_invariance () =
  let rng = rng0 () in
  for _ = 1 to 20 do
    let u = Randmat.unitary rng 4 in
    let l = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
    let r = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
    let u' = Mat.mul l (Mat.mul u r) in
    let x, y, z = Weyl.coords u and x', y', z' = Weyl.coords u' in
    check "coords invariant under locals" true
      (Float.abs (x -. x') < 1e-6 && Float.abs (y -. y') < 1e-6 && Float.abs (z -. z') < 1e-6)
  done

let test_cnot_cost_known () =
  checki "identity" 0 (Weyl.cnot_cost (Mat.identity 4));
  checki "cx" 1 (Weyl.cnot_cost (Unitary.of_gate Gate.CX));
  checki "cz" 1 (Weyl.cnot_cost (Unitary.of_gate Gate.CZ));
  checki "swap" 3 (Weyl.cnot_cost (Unitary.of_gate Gate.SWAP));
  checki "cp partial rotation" 2 (Weyl.cnot_cost (Unitary.of_gate (Gate.CP 0.9)));
  checki "cp pi is cz" 1 (Weyl.cnot_cost (Unitary.of_gate (Gate.CP Float.pi)));
  (* two cx on the same pair, differing orientation: entangling power of 2 *)
  let cx01 = Unitary.of_gate Gate.CX in
  let cx10 = Unitary.cnot_rev in
  checki "cx.cx same" 0 (Weyl.cnot_cost (Mat.mul cx01 cx01));
  checki "cx.cx rev" 2 (Weyl.cnot_cost (Mat.mul cx01 cx10));
  let rng = rng0 () in
  let generic = Randmat.su4 rng in
  checki "generic su4" 3 (Weyl.cnot_cost generic)

let test_cnot_cost_vs_gamma () =
  (* cross-validate the chamber classification against the
     Shende-Bullock-Markov gamma invariants *)
  let rng = rng0 () in
  let classify_gamma u =
    let g1, g2 = Weyl.gamma_invariants u in
    ignore g2;
    (* 0 CNOT: g1 = 1; 1 CNOT: g1 = 0 and g2 real... use simple known points *)
    g1
  in
  ignore classify_gamma;
  (* For unitaries built with k cnots and random locals, cost must be <= k *)
  for _ = 1 to 15 do
    let local () = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
    let cx = Unitary.of_gate Gate.CX in
    let u1 = Mat.mul (local ()) (Mat.mul cx (local ())) in
    check "1cx build cost" true (Weyl.cnot_cost u1 <= 1);
    let u2 = Mat.mul u1 (Mat.mul cx (local ())) in
    check "2cx build cost" true (Weyl.cnot_cost u2 <= 2);
    let u3 = Mat.mul u2 (Mat.mul cx (local ())) in
    check "3cx build cost" true (Weyl.cnot_cost u3 <= 3)
  done

let test_cnot_cost_fast_agrees () =
  (* the gamma-trace classifier must agree with the chamber classifier *)
  let rng = rng0 () in
  let check_agree u label =
    checki label (Weyl.cnot_cost u) (Weyl.cnot_cost_fast u)
  in
  check_agree (Mat.identity 4) "identity";
  check_agree (Unitary.of_gate Gate.CX) "cx";
  check_agree (Unitary.of_gate Gate.SWAP) "swap";
  check_agree (Unitary.of_gate (Gate.CP 0.8)) "cp";
  check_agree (Unitary.of_gate (Gate.RZZ 1.1)) "rzz";
  for _ = 1 to 30 do
    check_agree (Randmat.unitary rng 4) "random"
  done;
  (* structured cases: canonical gates across classes *)
  for _ = 1 to 20 do
    let x = Rng.float rng (Float.pi /. 4.0) in
    let y = Rng.float rng x in
    check_agree (Weyl.canonical_gate x y 0.0) "canonical z=0"
  done

(* ---------- Synth2q ---------- *)

let count_cx ops = List.length (List.filter (fun (g, _) -> g = Gate.CX) ops)

let roundtrip u =
  let ops = Synth2q.synthesize u in
  let v = Blocks.unitary ~zero:0 fst snd ops in
  (Mat.equal_up_to_phase u v, count_cx ops)

(* [Synth2q.synthesize] as it was, decomposing the core circuit on every
   call (class 1 included): the reference for the precomputed CX core *)
let reference_synthesize u =
  let pi = Float.pi in
  let one_qubit_ops m q =
    let theta, phi, lam, _ = Euler.u_params_of_unitary m in
    if Euler.is_identity_angles ~eps:1e-10 (theta, phi, lam) then []
    else [ (Gate.U (theta, phi, lam), [ q ]) ]
  in
  let r = Weyl.decompose u in
  let near a b = Float.abs (a -. b) < 1e-8 in
  let cls =
    if near r.x 0.0 && near r.y 0.0 && near r.z 0.0 then 0
    else if near r.x (pi /. 4.0) && near r.y 0.0 && near r.z 0.0 then 1
    else if near r.z 0.0 then 2
    else 3
  in
  if cls = 0 then
    one_qubit_ops (Mat.mul r.k1l r.k2l) 0 @ one_qubit_ops (Mat.mul r.k1r r.k2r) 1
  else begin
    let core =
      match cls with
      | 1 -> [ (Gate.CX, [ 0; 1 ]) ]
      | 2 ->
          [
            (Gate.CX, [ 0; 1 ]);
            (Gate.RX (-2.0 *. r.x), [ 0 ]);
            (Gate.RZ (-2.0 *. r.y), [ 1 ]);
            (Gate.CX, [ 0; 1 ]);
          ]
      | _ ->
          [
            (Gate.CX, [ 1; 0 ]);
            (Gate.RY ((pi /. 2.0) -. (2.0 *. r.y)), [ 1 ]);
            (Gate.CX, [ 0; 1 ]);
            (Gate.RZ ((pi /. 2.0) +. (2.0 *. r.z)), [ 0 ]);
            (Gate.RY ((pi /. 2.0) -. (2.0 *. r.x)), [ 1 ]);
            (Gate.CX, [ 1; 0 ]);
          ]
    in
    let rv = Weyl.decompose (Blocks.unitary ~zero:0 fst snd core) in
    let left_l = Mat.mul r.k1l (Mat.adjoint rv.k1l) in
    let left_r = Mat.mul r.k1r (Mat.adjoint rv.k1r) in
    let right_l = Mat.mul (Mat.adjoint rv.k2l) r.k2l in
    let right_r = Mat.mul (Mat.adjoint rv.k2r) r.k2r in
    one_qubit_ops right_l 0 @ one_qubit_ops right_r 1 @ core
    @ one_qubit_ops left_l 0 @ one_qubit_ops left_r 1
  end

(* gates, angle bits and wires of an op list *)
let ops_signature ops = Blocks.signature ~zero:0 fst snd ops

let test_synth_constant_core () =
  let rng = rng0 () in
  let local () = Mat.kron (Randmat.unitary rng 2) (Randmat.unitary rng 2) in
  let dressed g = Mat.mul (local ()) (Mat.mul g (local ())) in
  let class1 =
    List.init 30 (fun _ -> dressed (Unitary.of_gate (Rng.pick rng [ Gate.CX; Gate.CZ; Gate.CY ])))
  in
  let blocks =
    [ (2, dressed (Weyl.canonical_gate 0.5 0.2 0.0)); (3, Randmat.unitary rng 4) ]
    @ List.map (fun u -> (1, u)) class1
  in
  let col = Qobs.Collector.create () in
  Qobs.with_collector col (fun () ->
      List.iter
        (fun (cls, u) ->
          let ops = Synth2q.synthesize u in
          checki "class" cls (count_cx ops);
          check "ops and angle bits = per-call core" true
            (ops_signature ops = ops_signature (reference_synthesize u)))
        blocks);
  checki "one kak_decompositions per call" (List.length blocks)
    (Option.value ~default:0
       (List.assoc_opt "synth2q.kak_decompositions" (Qobs.Collector.counters col)))

let test_synth_random () =
  let rng = rng0 () in
  for _ = 1 to 40 do
    let u = Randmat.unitary rng 4 in
    let ok, k = roundtrip u in
    check "synth roundtrip" true ok;
    checki "generic uses 3 cx" 3 k
  done

let test_synth_standard () =
  List.iter
    (fun (g, expect) ->
      let u = Unitary.of_gate g in
      let ok, k = roundtrip u in
      check (Format.asprintf "%a synth" Gate.pp g) true ok;
      checki (Format.asprintf "%a cx count" Gate.pp g) expect k)
    [
      (Gate.CX, 1); (Gate.CZ, 1); (Gate.CY, 1); (Gate.CH, 1); (Gate.SWAP, 3);
      (Gate.CP 1.3, 2); (Gate.CRZ 0.8, 2); (Gate.RZZ 0.6, 2); (Gate.CP Float.pi, 1);
    ]

let test_synth_local () =
  let rng = rng0 () in
  let u = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
  let ok, k = roundtrip u in
  check "local synth" true ok;
  checki "local needs no cx" 0 k

let test_synth_two_cx_class () =
  let rng = rng0 () in
  (* canonical gates with z = 0 need exactly 2 cx *)
  for _ = 1 to 10 do
    let x = Rng.float rng 0.7 and y = Rng.float rng 0.7 in
    let x, y = (Float.max x y /. 1.0, Float.min x y) in
    let u = Weyl.canonical_gate (x /. 4.0) (y /. 4.0) 0.0 in
    let ok, k = roundtrip u in
    check "2cx roundtrip" true ok;
    check "2cx count" true (k <= 2)
  done

let test_synth_canonical_gates () =
  let rng = rng0 () in
  for _ = 1 to 25 do
    let x = Rng.float rng (Float.pi /. 4.0) in
    let y = Rng.float rng x in
    let z = Rng.float rng (2.0 *. y) -. y in
    let u = Weyl.canonical_gate x y z in
    let ok, k = roundtrip u in
    check "canonical synth roundtrip" true ok;
    check "canonical cx count" true (k <= 3)
  done

let test_synth_swap_like () =
  (* swap composed with locals is still 3 *)
  let rng = rng0 () in
  let local () = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
  let u = Mat.mul (local ()) (Mat.mul (Unitary.of_gate Gate.SWAP) (local ())) in
  let ok, k = roundtrip u in
  check "swap-like roundtrip" true ok;
  checki "swap-like count" 3 k

let test_synth_parameter_sweeps () =
  (* controlled-phase-like families across the angle range.  Classes follow
     the canonical x-coordinate: controlled rotations reach the 1-cx class
     only at angle pi; rzz(theta) = exp(-i theta/2 ZZ) hits 1-cx at pi/2
     and becomes LOCAL at pi (rzz(pi) ~ Z(x)Z up to phase). *)
  let sweep build expected_by_frac =
    List.iter2
      (fun frac expected ->
        let angle = frac *. Float.pi in
        let u = Unitary.of_gate (build angle) in
        let ok, k = roundtrip u in
        check "sweep roundtrip" true ok;
        checki (Format.asprintf "%a cx count" Gate.pp (build angle)) expected k)
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
      expected_by_frac
  in
  sweep (fun a -> Gate.CP a) [ 0; 2; 2; 2; 1 ];
  sweep (fun a -> Gate.CRX a) [ 0; 2; 2; 2; 1 ];
  sweep (fun a -> Gate.CRY a) [ 0; 2; 2; 2; 1 ];
  sweep (fun a -> Gate.RZZ a) [ 0; 2; 1; 2; 0 ]

let test_synth_compositions () =
  (* products of standard gates land in the right class and resynthesize:
     cx.cz is still a controlled pi-rotation (1 cx); swap composed with one
     cx or cz drops to the 2-cx class ("free" cnot absorption). *)
  let u g = Unitary.of_gate g in
  let cases =
    [
      (Mat.mul (u Gate.CX) (u Gate.CZ), 1);
      (Mat.mul (u Gate.SWAP) (u Gate.CX), 2);
      (Mat.mul (u Gate.SWAP) (u Gate.CZ), 2);
      (Mat.mul (u Gate.CX) (Mat.mul (u Gate.CZ) (u Gate.CX)), 1);
    ]
  in
  List.iter
    (fun (m, expected) ->
      let ok, k = roundtrip m in
      check "composition roundtrip" true ok;
      checki "composition class" expected k)
    cases

let qcheck_props =
  let gen_seed = QCheck.Gen.int_range 0 1_000_000 in
  let prop_synth =
    QCheck.Test.make ~name:"synthesize reconstructs random su4" ~count:60
      (QCheck.make gen_seed) (fun seed ->
        let u = Randmat.su4 (Rng.create seed) in
        let ops = Synth2q.synthesize u in
        Mat.equal_up_to_phase (Blocks.unitary ~zero:0 fst snd ops) u)
  in
  let prop_coords_chamber =
    QCheck.Test.make ~name:"coords always in chamber" ~count:80
      (QCheck.make gen_seed) (fun seed ->
        let u = Randmat.unitary (Rng.create seed) 4 in
        let x, y, z = Weyl.coords u in
        x <= (Float.pi /. 4.0) +. 1e-9 && x >= y -. 1e-9 && y >= Float.abs z -. 1e-9)
  in
  List.map QCheck_alcotest.to_alcotest [ prop_synth; prop_coords_chamber ]

let () =
  Alcotest.run "qpasses"
    [
      ( "weyl",
        [
          Alcotest.test_case "magic signatures" `Quick test_magic_signatures;
          Alcotest.test_case "canonical gate" `Quick test_canonical_gate_unitary;
          Alcotest.test_case "decompose random" `Quick test_decompose_reconstruct_random;
          Alcotest.test_case "decompose standard" `Quick test_decompose_standard_gates;
          Alcotest.test_case "chamber membership" `Quick test_chamber_membership;
          Alcotest.test_case "known coords" `Quick test_known_coords;
          Alcotest.test_case "local invariance" `Quick test_coords_local_invariance;
          Alcotest.test_case "cnot cost known" `Quick test_cnot_cost_known;
          Alcotest.test_case "cnot cost vs construction" `Quick test_cnot_cost_vs_gamma;
          Alcotest.test_case "fast classifier agrees" `Quick test_cnot_cost_fast_agrees;
        ] );
      ( "synth2q",
        [
          Alcotest.test_case "random su4" `Quick test_synth_random;
          Alcotest.test_case "standard gates" `Quick test_synth_standard;
          Alcotest.test_case "local" `Quick test_synth_local;
          Alcotest.test_case "two-cx class" `Quick test_synth_two_cx_class;
          Alcotest.test_case "canonical gates" `Quick test_synth_canonical_gates;
          Alcotest.test_case "swap-like" `Quick test_synth_swap_like;
          Alcotest.test_case "parameter sweeps" `Quick test_synth_parameter_sweeps;
          Alcotest.test_case "compositions" `Quick test_synth_compositions;
          Alcotest.test_case "constant cx core" `Quick test_synth_constant_core;
        ] );
      ("properties", qcheck_props);
    ]
