(* Numerical stress tests for the KAK decomposition at Weyl-chamber
   boundaries and degenerate spectra - the places eigensolvers break. *)

open Mathkit
open Qgate
open Qpasses

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let q = Float.pi /. 4.0

let roundtrip_ok u =
  let r = Weyl.decompose u in
  Mat.frobenius_distance (Weyl.reconstruct r) u < 1e-6

let coords_close u (x, y, z) =
  let x', y', z' = Weyl.coords u in
  Float.abs (x -. x') < 1e-6 && Float.abs (y -. y') < 1e-6 && Float.abs (z -. z') < 1e-6

(* chamber faces and edges *)
let boundary_points =
  [
    ("origin", (0.0, 0.0, 0.0));
    ("cx vertex", (q, 0.0, 0.0));
    ("swap vertex", (q, q, q));
    ("iswap edge", (q, q, 0.0));
    ("x=y face", (0.3, 0.3, 0.1));
    ("y=|z| face", (0.5, 0.2, 0.2));
    ("y=-z mirror", (q, 0.2, -0.2));
    ("x=pi/4 face", (q, 0.3, 0.1));
    ("tiny coords", (1e-4, 5e-5, 1e-5));
    ("near swap", (q -. 1e-5, q -. 1e-5, q -. 2e-5));
  ]

let test_boundary_roundtrips () =
  List.iter
    (fun (name, (x, y, z)) ->
      let u = Weyl.canonical_gate x y z in
      check (name ^ " roundtrip") true (roundtrip_ok u))
    boundary_points

let test_boundary_coords_recovered () =
  (* canonical gates built from chamber points must report those points
     back (the canonicalizer must not move interior/face representatives,
     except the mirror identification at x = pi/4 where z >= 0 is chosen) *)
  List.iter
    (fun (name, (x, y, z)) ->
      let u = Weyl.canonical_gate x y z in
      let expected = if Float.abs (x -. q) < 1e-9 && z < 0.0 then (x, y, -.z) else (x, y, z) in
      check (name ^ " coords") true (coords_close u expected))
    boundary_points

let test_boundary_dressed_with_locals () =
  (* the same points survive random local dressing *)
  let rng = Rng.create 777 in
  List.iter
    (fun (name, (x, y, z)) ->
      let u = Weyl.canonical_gate x y z in
      let l = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
      let r = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
      let dressed = Mat.mul l (Mat.mul u r) in
      check (name ^ " dressed roundtrip") true (roundtrip_ok dressed);
      let expected = if Float.abs (x -. q) < 1e-9 && z < 0.0 then (x, y, -.z) else (x, y, z) in
      check (name ^ " dressed coords") true (coords_close dressed expected))
    boundary_points

let test_boundary_synthesis () =
  List.iter
    (fun (name, (x, y, z)) ->
      let u = Weyl.canonical_gate x y z in
      let ops = Synth2q.synthesize u in
      check (name ^ " synthesis") true
        (Mat.equal_up_to_phase (Blocks.unitary ~zero:0 fst snd ops) u))
    boundary_points

let test_degenerate_spectra () =
  (* unitaries whose m^T m has degenerate eigenvalues exercise the
     simultaneous-diagonalization path *)
  let cases =
    [
      ("identity", Mat.identity 4);
      ("cx", Unitary.of_gate Gate.CX);
      ("cz", Unitary.of_gate Gate.CZ);
      ("swap", Unitary.of_gate Gate.SWAP);
      ("cx.swap", Mat.mul (Unitary.of_gate Gate.CX) (Unitary.of_gate Gate.SWAP));
      ("x(x)x", Mat.kron (Unitary.of_gate Gate.X) (Unitary.of_gate Gate.X));
      ("h(x)h", Mat.kron (Unitary.of_gate Gate.H) (Unitary.of_gate Gate.H));
      ("z(x)i", Mat.kron (Unitary.of_gate Gate.Z) (Mat.identity 2));
    ]
  in
  List.iter (fun (name, u) -> check (name ^ " roundtrip") true (roundtrip_ok u)) cases

let test_phase_insensitivity () =
  (* global phases must not move the coordinates *)
  let rng = Rng.create 31337 in
  for _ = 1 to 15 do
    let u = Randmat.unitary rng 4 in
    let x, y, z = Weyl.coords u in
    let phi = Rng.float rng 6.28 in
    check "phase invariant" true (coords_close (Mat.scale (Cx.exp_i phi) u) (x, y, z))
  done

let test_transpose_and_adjoint_classes () =
  (* U and U^dagger need the same CNOT count (inverse circuits) *)
  let rng = Rng.create 4242 in
  for _ = 1 to 15 do
    let u = Randmat.unitary rng 4 in
    checki "adjoint same class" (Weyl.cnot_cost u) (Weyl.cnot_cost (Mat.adjoint u))
  done

let test_fast_classifier_on_boundaries () =
  (* the two classifiers use different numeric scales (angles vs traces);
     within ~1e-5 of a class boundary they may legitimately disagree, so
     exact agreement is only required at points clear of boundaries *)
  let clear_of_boundary (x, _y, z) =
    let margin v = Float.abs v > 1e-3 || Float.abs v < 1e-9 in
    margin z && (Float.abs (x -. q) > 1e-3 || Float.abs (x -. q) < 1e-9)
  in
  List.iter
    (fun (name, (x, y, z)) ->
      if clear_of_boundary (x, y, z) then
        let u = Weyl.canonical_gate x y z in
        checki (name ^ " fast=chamber") (Weyl.cnot_cost u) (Weyl.cnot_cost_fast u))
    boundary_points

let test_synthesis_count_optimality_spotchecks () =
  (* the emitted count equals the class, never more *)
  let count u =
    List.length (List.filter (fun (g, _) -> g = Gate.CX) (Synth2q.synthesize u))
  in
  List.iter
    (fun (_, (x, y, z)) ->
      let u = Weyl.canonical_gate x y z in
      checki "count = class" (Weyl.cnot_cost u) (count u))
    boundary_points

(* ---------- the kernel against the code it replaced ---------- *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let mat_bits a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  && Array.for_all2 same_bits
       (Float.Array.map_to_array Fun.id (Mat.storage a))
       (Float.Array.map_to_array Fun.id (Mat.storage b))

let result_bits (a : Weyl.t) (b : Weyl.t) =
  same_bits a.phase b.phase && same_bits a.x b.x && same_bits a.y b.y && same_bits a.z b.z
  && mat_bits a.k1l b.k1l && mat_bits a.k1r b.k1r && mat_bits a.k2l b.k2l
  && mat_bits a.k2r b.k2r

let outcome f u = match f u with r -> Ok r | exception Invalid_argument m -> Error m

(* both return the same bits, or both raise the same message *)
let kernel_matches_reference u =
  match (outcome Weyl.decompose u, outcome Kakref.Weyl_ref.decompose u) with
  | Ok a, Ok b -> result_bits a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let iswap =
  Mat.of_rows
    [
      [ Cx.one; Cx.zero; Cx.zero; Cx.zero ];
      [ Cx.zero; Cx.zero; Cx.i; Cx.zero ];
      [ Cx.zero; Cx.i; Cx.zero; Cx.zero ];
      [ Cx.zero; Cx.zero; Cx.zero; Cx.one ];
    ]

(* exact single-qubit Cliffords: their products keep entries of equal
   modulus and exact zeros, where moduli tie *)
let clifford rng =
  let gates = [| Gate.H; Gate.S; Gate.X; Gate.Z; Gate.SX |] in
  List.fold_left
    (fun acc _ -> Mat.mul (Unitary.of_gate gates.(Rng.int rng (Array.length gates))) acc)
    (Mat.identity 2)
    (List.init (Rng.int rng 4) Fun.id)

let local rng =
  if Rng.bool rng then Mat.kron (Randmat.unitary rng 2) (Randmat.unitary rng 2)
  else Mat.kron (clifford rng) (clifford rng)

let dressed rng core = Mat.mul (local rng) (Mat.mul core (local rng))

(* diag(e^{i t_k}), the t_k from three values, so phases repeat *)
let diagonal_n rng n = Mat.diag_phases (Array.init n (fun _ -> Rng.pick rng [ 0.0; 0.7; -2.1 ]))
let diagonal rng = diagonal_n rng 4

(* every exactly-zero part of [m] given a random sign *)
let signed_zeros rng m =
  let s = Mat.storage (Mat.copy m) in
  Float.Array.iteri
    (fun k v -> if v = 0.0 then Float.Array.set s k (if Rng.bool rng then 0.0 else -0.0))
    s;
  Mat.init 4 4 (fun i j ->
      Cx.make (Float.Array.get s (2 * ((4 * i) + j))) (Float.Array.get s ((2 * ((4 * i) + j)) + 1)))

let special rng =
  Rng.pick rng
    [
      Unitary.of_gate Gate.SWAP;
      iswap;
      Mat.identity 4;
      Unitary.of_gate Gate.CZ;
      Unitary.of_gate Gate.CX;
    ]

let angle rng = Rng.float rng q

(* the inputs: [rng]'s draw picks the family *)
let kak_input rng =
  match Rng.int rng 12 with
  | 0 -> Randmat.unitary rng 4
  | 1 -> Mat.scale (Cx.exp_i (Rng.float rng 6.3)) (local rng)
  | 2 -> dressed rng (Unitary.of_gate Gate.CX)
  | 3 ->
      let x = angle rng in
      dressed rng (Weyl.canonical_gate x (Rng.float rng x) 0.0)
  | 4 -> if Rng.bool rng then special rng else dressed rng (special rng)
  | 5 -> diagonal rng
  | 6 ->
      (* exact zeros of either sign *)
      let m = Rng.pick rng [ special rng; diagonal rng; Mat.kron (clifford rng) (clifford rng) ] in
      signed_zeros rng m
  | 7 ->
      (* the x = pi/4, z < 0 boundary, which canonicalize's step 4 folds *)
      let y = angle rng in
      let u = Weyl.canonical_gate q y (-.Rng.float rng y) in
      if Rng.bool rng then u else dressed rng u
  | 8 ->
      (* degenerate spectra of m^T m: products of diagonals, faces and
         edges of the chamber, under exact or diagonal locals *)
      let d () = Mat.kron (diagonal_n rng 2) (diagonal_n rng 2) in
      let a = angle rng in
      let core =
        Rng.pick rng
          [
            Weyl.canonical_gate a a a;
            Weyl.canonical_gate a a 0.0;
            Weyl.canonical_gate a 0.0 0.0;
            d ();
          ]
      in
      Mat.mul (d ()) (Mat.mul core (d ()))
  | 9 ->
      (* not a 4x4 unitary *)
      Rng.pick rng
        [ Mat.identity 2; Mat.zeros 4 2; Mat.identity 8; Randmat.ginibre rng 4; Mat.zeros 4 4 ]
  | 10 ->
      (* within the 1e-7 unitarity test of a degenerate class: the left
         factor often fails to split *)
      let u = special rng and eps = Rng.pick rng [ 1e-8; 3e-8; 1e-7 ] in
      Mat.init 4 4 (fun i j ->
          let z = Mat.get u i j in
          Cx.make (z.re +. (eps *. Rng.gaussian rng)) (z.im +. (eps *. Rng.gaussian rng)))
  | _ -> dressed rng (Randmat.unitary rng 4)

(* cases seen, cases whose reference split a degenerate eigenspace, and
   the messages raised *)
let cases = ref 0
let degenerate_cases = ref 0
let raised = Hashtbl.create 4

let prop_kernel_bits =
  QCheck.Test.make ~name:"kernel decompose = reference, bit for bit" ~count:2000
    ~long_factor:20
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let u = kak_input (Rng.create seed) in
      let before = Atomic.get Kakref.Eig.degenerate_blocks in
      (match Kakref.Weyl_ref.decompose u with
      | _ -> ()
      | exception Invalid_argument m ->
          Hashtbl.replace raised m (1 + Option.value ~default:0 (Hashtbl.find_opt raised m)));
      incr cases;
      if Atomic.get Kakref.Eig.degenerate_blocks > before then incr degenerate_cases;
      kernel_matches_reference u)

(* the property fails too when its inputs stop reaching the block path
   of the eigensolver (1 case in 8) or either reachable message (1 in
   100): a generator that lost them would pass without testing them *)
let test_kernel_bits =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_kernel_bits in
  ( name,
    speed,
    fun () ->
      cases := 0;
      degenerate_cases := 0;
      Hashtbl.reset raised;
      run ();
      let seen m = Option.value ~default:0 (Hashtbl.find_opt raised m) in
      let check_share what n per =
        check (Printf.sprintf "%s in %d of %d cases" what n !cases) true (n * per >= !cases)
      in
      check_share "degenerate eigenspaces" !degenerate_cases 8;
      check_share "not unitary" (seen "Weyl.decompose: input must be a 4x4 unitary") 100;
      check_share "left factor not local" (seen "Weyl.decompose: left factor is not local") 100 )

let () =
  Alcotest.run "weyl_boundary"
    [
      ( "chamber boundaries",
        [
          Alcotest.test_case "roundtrips" `Quick test_boundary_roundtrips;
          Alcotest.test_case "coords recovered" `Quick test_boundary_coords_recovered;
          Alcotest.test_case "with locals" `Quick test_boundary_dressed_with_locals;
          Alcotest.test_case "synthesis" `Quick test_boundary_synthesis;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "spectra" `Quick test_degenerate_spectra;
          Alcotest.test_case "phase invariance" `Quick test_phase_insensitivity;
          Alcotest.test_case "adjoint class" `Quick test_transpose_and_adjoint_classes;
          Alcotest.test_case "fast classifier" `Quick test_fast_classifier_on_boundaries;
          Alcotest.test_case "count optimality" `Quick test_synthesis_count_optimality_spotchecks;
        ] );
      ("bit identity", [ test_kernel_bits ]);
    ]
