(* Edge cases for the noise model, the success-rate experiment, and the
   paper's eq. 3 noise-aware distance: a zero-error device must succeed with
   certainty, a fully-decohered qubit must drive ESP to zero, and the
   (alpha1, alpha2, alpha3) weights must reduce to hop counts when only the
   constant term is on. *)

open Qcircuit
open Qgate

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let linear3 = Topology.Devices.linear 3

let zero_error_cal =
  Topology.Calibration.create ~coupling:linear3 ~cx_error:(fun _ _ -> 0.0) ()

let ghz3 =
  let b = Circuit.Builder.create 3 in
  Circuit.Builder.add b Gate.H [ 0 ];
  Circuit.Builder.add b Gate.CX [ 0; 1 ];
  Circuit.Builder.add b Gate.CX [ 1; 2 ];
  Circuit.Builder.circuit b

(* ---------- zero-error device ---------- *)

let test_zero_error_esp_is_one () =
  let model = Qsim.Noise.of_calibration zero_error_cal in
  checkf "esp = 1 with no error anywhere" 1.0
    (Qsim.Noise.esp model ghz3 ~measured:[ 0; 1; 2 ])

let test_zero_error_success_is_certain () =
  (* deterministic logical circuit (X then CX chain): the ideal outcome has
     probability 1, so every noiseless shot must match it *)
  let b = Circuit.Builder.create 3 in
  Circuit.Builder.add b Gate.X [ 0 ];
  Circuit.Builder.add b Gate.CX [ 0; 1 ];
  Circuit.Builder.add b Gate.CX [ 1; 2 ];
  let c = Circuit.Builder.circuit b in
  let o =
    Qsim.Success.routed_success ~shots:256 ~cal:zero_error_cal ~ideal:c ~routed:c
      ~final_layout:[| 0; 1; 2 |] ()
  in
  checkf "success rate 1.0" 1.0 o.success_rate;
  checkf "esp 1.0" 1.0 o.esp

let test_trivial_noise_matches_calibrated_zero () =
  let trivial = Qsim.Noise.trivial ~n:3 in
  let calibrated = Qsim.Noise.of_calibration zero_error_cal in
  List.iter
    (fun (i : Circuit.instr) ->
      checkf "gate error agrees"
        (Qsim.Noise.gate_error trivial i.gate i.qubits)
        (Qsim.Noise.gate_error calibrated i.gate i.qubits))
    (Circuit.instrs ghz3);
  (* sampling under trivial noise only ever produces the noiseless
     distribution; for a deterministic circuit, only the ideal outcome *)
  let b = Circuit.Builder.create 2 in
  Circuit.Builder.add b Gate.X [ 0 ];
  Circuit.Builder.add b Gate.CX [ 0; 1 ];
  let c = Circuit.Builder.circuit b in
  let ideal = Qsim.Success.ideal_outcome c in
  let shots = Qsim.Noise.sample trivial c ~shots:64 (Mathkit.Rng.create 5) in
  Array.iter (fun s -> check "every shot is the ideal outcome" true (s = ideal)) shots

(* ---------- fully-decohered qubit ---------- *)

let test_decohered_qubit_kills_esp () =
  let cal =
    Topology.Calibration.create ~coupling:linear3
      ~cx_error:(fun _ _ -> 0.0)
      ~sq_error:(fun q -> if q = 0 then 1.0 else 0.0)
      ()
  in
  let model = Qsim.Noise.of_calibration cal in
  let b = Circuit.Builder.create 3 in
  Circuit.Builder.add b Gate.H [ 0 ];
  let touches_bad = Circuit.Builder.circuit b in
  checkf "gate on decohered qubit always errors" 1.0
    (Qsim.Noise.gate_error model Gate.H [ 0 ]);
  checkf "esp collapses to zero" 0.0 (Qsim.Noise.esp model touches_bad ~measured:[ 0 ]);
  let b = Circuit.Builder.create 3 in
  Circuit.Builder.add b Gate.H [ 1 ];
  let avoids_bad = Circuit.Builder.circuit b in
  checkf "avoiding the dead qubit restores esp" 1.0
    (Qsim.Noise.esp model avoids_bad ~measured:[ 1 ])

let test_coin_flip_readout () =
  let cal =
    Topology.Calibration.create ~coupling:linear3
      ~cx_error:(fun _ _ -> 0.0)
      ~readout_error:(fun q -> if q = 2 then 0.5 else 0.0)
      ()
  in
  let model = Qsim.Noise.of_calibration cal in
  checkf "readout passthrough" 0.5 (Qsim.Noise.readout_error model 2);
  let b = Circuit.Builder.create 3 in
  Circuit.Builder.add b Gate.X [ 2 ];
  let c = Circuit.Builder.circuit b in
  checkf "esp pays the readout factor" 0.5 (Qsim.Noise.esp model c ~measured:[ 2 ]);
  checkf "unmeasured wires don't pay it" 1.0 (Qsim.Noise.esp model c ~measured:[ 0 ])

(* ---------- eq. 3 weights ---------- *)

let ring5_cal =
  (* distinguishable per-edge errors so alpha1 actually matters *)
  Topology.Calibration.create ~coupling:(Topology.Devices.ring 5)
    ~cx_error:(fun a b -> 0.01 +. (0.004 *. float_of_int (min a b)))
    ()

let test_default_weights_are_paper_defaults () =
  let d = Topology.Calibration.noise_distmat ring5_cal in
  let e =
    Topology.Calibration.noise_distmat ~alpha1:0.5 ~alpha2:0.0 ~alpha3:0.5 ring5_cal
  in
  check "defaults = (0.5, 0, 0.5)" true (Topology.Distmat.raw d = Topology.Distmat.raw e)

let test_constant_weight_reproduces_hop_distance () =
  let d =
    Topology.Calibration.noise_distmat ~alpha1:0.0 ~alpha2:0.0 ~alpha3:1.0 ring5_cal
  in
  let coupling = Topology.Calibration.coupling ring5_cal in
  for a = 0 to 4 do
    for b = 0 to 4 do
      checkf
        (Printf.sprintf "hops %d-%d" a b)
        (float_of_int (Topology.Coupling.distance coupling a b))
        (Topology.Distmat.get d a b)
    done
  done

let test_error_weight_prefers_quiet_path () =
  (* alpha = (1, 0, 0): path cost is summed normalized error, so the
     noisiest edge is avoided when a quieter detour has lower total *)
  let d =
    Topology.Calibration.noise_distmat ~alpha1:1.0 ~alpha2:0.0 ~alpha3:0.0 ring5_cal
  in
  let eps a b =
    Topology.Calibration.cx_error ring5_cal a b
    /. Topology.Calibration.cx_error ring5_cal 3 4
    (* edge (3,4) carries the max error: min a b = 3 *)
  in
  (* 0 and 4 are adjacent on the ring; direct hop weight must match *)
  let d = Topology.Distmat.get d in
  checkf "adjacent noise distance is the edge weight" (eps 0 4) (d 0 4);
  check "triangle inequality" true (d 0 2 <= d 0 1 +. d 1 2 +. 1e-12)

let () =
  Alcotest.run "noise_success"
    [
      ( "zero-error device",
        [
          Alcotest.test_case "esp = 1" `Quick test_zero_error_esp_is_one;
          Alcotest.test_case "success certain" `Quick test_zero_error_success_is_certain;
          Alcotest.test_case "trivial model agrees" `Quick
            test_trivial_noise_matches_calibrated_zero;
        ] );
      ( "decohered qubit",
        [
          Alcotest.test_case "esp collapses" `Quick test_decohered_qubit_kills_esp;
          Alcotest.test_case "coin-flip readout" `Quick test_coin_flip_readout;
        ] );
      ( "eq. 3 weights",
        [
          Alcotest.test_case "paper defaults" `Quick test_default_weights_are_paper_defaults;
          Alcotest.test_case "alpha3 only = hop count" `Quick
            test_constant_weight_reproduces_hop_distance;
          Alcotest.test_case "alpha1 only follows error" `Quick
            test_error_weight_prefers_quiet_path;
        ] );
    ]
