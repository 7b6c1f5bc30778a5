(* Tests for Qverify: tableau correctness against dense matrices,
   verify_pair/verify_routed verdicts, golden-corpus certification,
   mutation detection, agreement with Qsim.Equiv, and device scale. *)

open Qcircuit
module G = Qgate.Gate
module P = Qverify.Pauli
module T = Qverify.Tableau
module Mat = Mathkit.Mat
module Cx = Mathkit.Cx

let check name b = Alcotest.(check bool) name true b

(* ---- dense reference for Pauli / Tableau ---- *)

let mat_of_code = function
  | 0 -> Mat.identity 2
  | 1 -> Mat.of_real_rows [ [ 0.; 1. ]; [ 1.; 0. ] ]
  | 2 -> Mat.of_real_rows [ [ 1.; 0. ]; [ 0.; -1. ] ]
  | _ ->
      Mat.of_rows
        [ [ Cx.zero; Cx.make 0. (-1.) ]; [ Cx.make 0. 1.; Cx.zero ] ]

let mat_of_pauli p =
  let n = P.n_wires p in
  let m = ref (Mat.identity 1) in
  for w = 0 to n - 1 do
    m := Mat.kron !m (mat_of_code (P.code p w))
  done;
  let ph =
    match P.phase p with
    | 0 -> Cx.one
    | 1 -> Cx.make 0. 1.
    | 2 -> Cx.make (-1.) 0.
    | _ -> Cx.make 0. (-1.)
  in
  Mat.scale ph !m

let approx_mat a b = Mat.approx_equal ~eps:1e-9 a b

let test_pauli_mul () =
  let n = 3 in
  let x0 = P.single ~n 0 1 and z0 = P.single ~n 0 2 in
  (* X.Z = -iY *)
  let p = P.mul x0 z0 in
  check "X.Z phase" (P.phase p = 3);
  check "X.Z letter" (P.code p 0 = 3);
  check "Z.X phase" (P.phase (P.mul z0 x0) = 1);
  (* dense agreement on random products *)
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 50 do
    let rand_p () =
      P.of_codes ~n
        ~phase:(Random.State.int st 4)
        (List.init n (fun w -> (w, Random.State.int st 4)))
    in
    let a = rand_p () and b = rand_p () in
    check "dense mul" (approx_mat (mat_of_pauli (P.mul a b)) (Mat.mul (mat_of_pauli a) (mat_of_pauli b)));
    check "commutes"
      (P.commutes a b
      = approx_mat
          (Mat.mul (mat_of_pauli a) (mat_of_pauli b))
          (Mat.mul (mat_of_pauli b) (mat_of_pauli a)))
  done

(* gate matrices for the tableau vocabulary *)
let gate_mat n (g : T.gate) qs =
  let u2 rows = Mat.of_rows rows in
  let s2 = u2 [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.make 0. 1. ] ] in
  let h = Cx.re (1.0 /. sqrt 2.0) in
  let local =
    match g with
    | T.X -> mat_of_code 1
    | T.Y -> mat_of_code 3
    | T.Z -> mat_of_code 2
    | T.H -> Mat.scale h (Mat.add (mat_of_code 1) (mat_of_code 2))
    | T.S -> s2
    | T.Sdg -> Mat.adjoint s2
    | T.SX ->
        Mat.scale (Cx.make 0.5 0.5)
          (u2
             [
               [ Cx.one; Cx.make 0. (-1.) ]; [ Cx.make 0. (-1.) ; Cx.one ];
             ])
    | T.SXdg ->
        Mat.adjoint
          (Mat.scale (Cx.make 0.5 0.5)
             (u2 [ [ Cx.one; Cx.make 0. (-1.) ]; [ Cx.make 0. (-1.); Cx.one ] ]))
    | T.SY ->
        (* exp(-i pi/4 Y) = [[c, -s],[s, c]] with c=s=1/sqrt2 *)
        Mat.of_real_rows [ [ 1. /. sqrt 2.; -1. /. sqrt 2. ]; [ 1. /. sqrt 2.; 1. /. sqrt 2. ] ]
    | T.SYdg ->
        Mat.of_real_rows [ [ 1. /. sqrt 2.; 1. /. sqrt 2. ]; [ -1. /. sqrt 2.; 1. /. sqrt 2. ] ]
    | T.CX -> Qgate.Unitary.of_gate G.CX
    | T.CY -> Qgate.Unitary.of_gate G.CY
    | T.CZ -> Qgate.Unitary.of_gate G.CZ
    | T.SWAP -> Qgate.Unitary.of_gate G.SWAP
  in
  Circuit.embed ~n local qs

let test_tableau_vs_dense () =
  (* random Clifford words: check row_x/row_z = C^dag X_w C / C^dag Z_w C *)
  let n = 3 in
  let st = Random.State.make [| 23 |] in
  let gates_1q = [| T.X; T.Y; T.Z; T.H; T.S; T.Sdg; T.SX; T.SXdg; T.SY; T.SYdg |] in
  let gates_2q = [| T.CX; T.CY; T.CZ; T.SWAP |] in
  for _trial = 1 to 25 do
    let tab = T.create n in
    let c = ref (Mat.identity (1 lsl n)) in
    for _g = 1 to 12 do
      let g, qs =
        if Random.State.bool st then
          (gates_1q.(Random.State.int st (Array.length gates_1q)), [ Random.State.int st n ])
        else begin
          let a = Random.State.int st n in
          let b = (a + 1 + Random.State.int st (n - 1)) mod n in
          (gates_2q.(Random.State.int st (Array.length gates_2q)), [ a; b ])
        end
      in
      T.apply tab g qs;
      (* C <- g C *)
      c := Mat.mul (gate_mat n g qs) !c
    done;
    let cd = Mat.adjoint !c in
    for w = 0 to n - 1 do
      check "row_x dense"
        (approx_mat (mat_of_pauli (T.row_x tab w))
           (Mat.mul cd (Mat.mul (mat_of_pauli (P.single ~n w 1)) !c)));
      check "row_z dense"
        (approx_mat (mat_of_pauli (T.row_z tab w))
           (Mat.mul cd (Mat.mul (mat_of_pauli (P.single ~n w 2)) !c)))
    done
  done

let test_fold_vs_dense () =
  (* fold_local and fold_frame against dense conjugation *)
  let n = 2 in
  let st = Random.State.make [| 5 |] in
  for _trial = 1 to 20 do
    let tab = T.create n in
    let c = ref (Mat.identity (1 lsl n)) in
    let push g qs =
      T.apply tab g qs;
      c := Mat.mul (gate_mat n g qs) !c
    in
    push T.H [ 0 ];
    push T.CX [ 0; 1 ];
    if Random.State.bool st then push T.S [ 1 ];
    let quarters = 1 + Random.State.int st 3 in
    let codes = [ (0, 1 + Random.State.int st 3); (1, 1 + Random.State.int st 3) ] in
    (* dense rotation exp(-i (q pi/2)/2 Q) *)
    let qmat =
      Circuit.embed ~n (mat_of_code (List.assoc 0 codes)) [ 0 ]
      |> Mat.mul (Circuit.embed ~n (mat_of_code (List.assoc 1 codes)) [ 1 ])
    in
    let th = float_of_int quarters *. Float.pi /. 2.0 in
    let e =
      Mat.add
        (Mat.scale (Cx.re (cos (th /. 2.))) (Mat.identity (1 lsl n)))
        (Mat.scale (Cx.make 0. (-.sin (th /. 2.))) qmat)
    in
    T.fold_local tab ~quarters codes;
    let cm = Mat.mul e !c in
    let cd = Mat.adjoint cm in
    for w = 0 to n - 1 do
      check "fold_local row_x"
        (approx_mat (mat_of_pauli (T.row_x tab w))
           (Mat.mul cd (Mat.mul (mat_of_pauli (P.single ~n w 1)) cm)));
      check "fold_local row_z"
        (approx_mat (mat_of_pauli (T.row_z tab w))
           (Mat.mul cd (Mat.mul (mat_of_pauli (P.single ~n w 2)) cm)))
    done
  done

(* ---- verify_pair on hand-written cases ---- *)

let circ n l =
  Circuit.create n
    (List.map (fun (g, qs) -> { Circuit.gate = g; qubits = qs }) l)

let is_equiv = function Qverify.Equivalent _ -> true | _ -> false
let is_not_equiv = function Qverify.Not_equivalent _ -> true | _ -> false

let test_pair_basic () =
  (* identical circuits *)
  let a = circ 2 [ (G.H, [ 0 ]); (G.CX, [ 0; 1 ]); (G.T, [ 1 ]) ] in
  check "same circuit" (is_equiv (Qverify.verify_pair a a));
  (* HZH = X *)
  let hzh = circ 1 [ (G.H, [ 0 ]); (G.Z, [ 0 ]); (G.H, [ 0 ]) ] in
  let x = circ 1 [ (G.X, [ 0 ]) ] in
  check "HZH = X" (is_equiv (Qverify.verify_pair hzh x));
  (* H RZ(a) H = RX(a): exercises the merge scan through a frame change *)
  let a1 = circ 1 [ (G.H, [ 0 ]); (G.RZ 0.4, [ 0 ]); (G.H, [ 0 ]) ] in
  let b1 = circ 1 [ (G.RX 0.4, [ 0 ]) ] in
  check "H RZ H = RX" (is_equiv (Qverify.verify_pair a1 b1));
  (* global phase: P(a) vs RZ(a) differ by exp(ia/2) and must still pass *)
  let pa = circ 1 [ (G.P 0.7, [ 0 ]) ] in
  let rz = circ 1 [ (G.RZ 0.7, [ 0 ]) ] in
  check "P = RZ up to phase" (is_equiv (Qverify.verify_pair pa rz));
  (* T^2 = S: Clifford-angle merge folds into the frame *)
  let tt = circ 1 [ (G.T, [ 0 ]); (G.T, [ 0 ]) ] in
  let s = circ 1 [ (G.S, [ 0 ]) ] in
  check "TT = S" (is_equiv (Qverify.verify_pair tt s));
  (* different rotation angles: dense residue, provably non-Clifford *)
  let r1 = circ 1 [ (G.RZ 0.4, [ 0 ]) ] in
  let r2 = circ 1 [ (G.RZ 0.9, [ 0 ]) ] in
  check "RZ 0.4 /= RZ 0.9" (is_not_equiv (Qverify.verify_pair r1 r2));
  (* Clifford mismatch *)
  let cx = circ 2 [ (G.CX, [ 0; 1 ]) ] in
  let cx' = circ 2 [ (G.CX, [ 1; 0 ]) ] in
  check "CX operand swap" (is_not_equiv (Qverify.verify_pair cx cx'))

let test_pair_u_gate () =
  (* U(t,p,l) against its RZ/RY expansion and against KAK-style re-synthesis *)
  let t, p, l = (0.7, 1.1, -0.3) in
  let u = circ 1 [ (G.U (t, p, l), [ 0 ]) ] in
  let expanded =
    circ 1 [ (G.RZ l, [ 0 ]); (G.RY t, [ 0 ]); (G.RZ p, [ 0 ]) ]
  in
  check "U = RZ RY RZ" (is_equiv (Qverify.verify_pair u expanded));
  (* RX via its U form: dense residue cluster spanning {X, Y, Z} *)
  let rx = circ 1 [ (G.RX 0.7, [ 0 ]) ] in
  let rx_u = circ 1 [ (G.U (0.7, -.Float.pi /. 2., Float.pi /. 2.), [ 0 ]) ] in
  check "RX = U form" (is_equiv (Qverify.verify_pair rx rx_u));
  let rx_wrong = circ 1 [ (G.U (0.8, -.Float.pi /. 2., Float.pi /. 2.), [ 0 ]) ] in
  check "wrong U form" (is_not_equiv (Qverify.verify_pair rx rx_wrong))

let test_routed_swap () =
  (* U = CX(0,1) routed as CX(0,1); SWAP(1,2) with final layout [0;2] *)
  let original = circ 2 [ (G.CX, [ 0; 1 ]) ] in
  let routed = circ 3 [ (G.CX, [ 0; 1 ]); (G.SWAP, [ 1; 2 ]) ] in
  let v =
    Qverify.verify_routed ~original ~routed ~initial_layout:[| 0; 1 |]
      ~final_layout:[| 0; 2 |] ()
  in
  check "routed swap ok" (is_equiv v);
  (* the wrong final layout must be rejected *)
  let v' =
    Qverify.verify_routed ~original ~routed ~initial_layout:[| 0; 1 |]
      ~final_layout:[| 0; 1 |] ()
  in
  check "wrong layout flagged" (is_not_equiv v')

(* ---- pipeline results over the golden corpus axes ---- *)

let routers = Qroute.Pipeline.routers

let transpile ?(seed = Golden_defs.seed) ~router coupling c =
  let params = { Qroute.Engine.default_params with seed } in
  Qroute.Pipeline.transpile ~params ~router coupling c

let test_pipeline_cells () =
  let topos = Golden_defs.topologies () in
  let circs = Golden_defs.circuits () in
  List.iter
    (fun (tname, topo) ->
      List.iter
        (fun (cname, c) ->
          List.iter
            (fun (rname, router) ->
              let r = transpile ~router topo c in
              let il = Option.get r.Qroute.Pipeline.initial_layout in
              let fl = Option.get r.Qroute.Pipeline.final_layout in
              let v =
                Qverify.verify_routed ~original:c ~routed:r.Qroute.Pipeline.circuit
                  ~initial_layout:il ~final_layout:fl ()
              in
              check
                (Printf.sprintf "certify %s/%s/%s: %s" tname cname rname
                   (Qverify.to_json v))
                (is_equiv v))
            routers)
        circs)
    topos

(* ---- mutation detection ---- *)

(* decisive mutations of a routed circuit: perturb / retarget / delete /
   duplicate a non-Clifford rotation.  Each provably changes the unitary,
   so Qverify must answer Not_equivalent. *)
let mutate st (c : Circuit.t) =
  let instrs = Array.of_list (Circuit.instrs c) in
  let n = Circuit.n_qubits c in
  let quarter a =
    let r = Float.rem (Float.abs a) (Float.pi /. 2.0) in
    Float.min r (Float.pi /. 2.0 -. r) < 1e-3
  in
  let rot_sites =
    Array.to_list instrs
    |> List.mapi (fun i (ins : Circuit.instr) -> (i, ins))
    |> List.filter (fun (_, (ins : Circuit.instr)) ->
           match ins.Circuit.gate with
           | G.RZ a | G.P a -> not (quarter a)
           | _ -> false)
  in
  match rot_sites with
  | [] -> None
  | sites ->
      let i, (ins : Circuit.instr) = List.nth sites (Random.State.int st (List.length sites)) in
      let a = match ins.Circuit.gate with G.RZ a | G.P a -> a | _ -> 0.0 in
      let kind = Random.State.int st 4 in
      let rebuild f =
        let out = ref [] in
        Array.iteri
          (fun j (it : Circuit.instr) ->
            List.iter
              (fun (g, qs) -> out := { Circuit.gate = g; qubits = qs } :: !out)
              (f j it))
          instrs;
        Some (Circuit.create n (List.rev !out))
      in
      (match kind with
      | 0 ->
          (* perturb the angle by 0.3..0.7: far above every tolerance *)
          let d = 0.3 +. Random.State.float st 0.4 in
          rebuild (fun j it ->
              if j = i then [ (G.RZ (a +. d), it.Circuit.qubits) ]
              else [ (it.Circuit.gate, it.Circuit.qubits) ])
      | 1 when n > 1 ->
          (* retarget to another wire *)
          let q = List.hd ins.Circuit.qubits in
          let q' = (q + 1 + Random.State.int st (n - 1)) mod n in
          rebuild (fun j it ->
              if j = i then [ (it.Circuit.gate, [ q' ]) ]
              else [ (it.Circuit.gate, it.Circuit.qubits) ])
      | 2 ->
          (* delete *)
          rebuild (fun j it ->
              if j = i then [] else [ (it.Circuit.gate, it.Circuit.qubits) ])
      | _ ->
          (* duplicate (2a is not a multiple of pi/2 when a is decisive,
             unless a is pi/4-like; re-randomize by perturbing instead) *)
          if quarter (2.0 *. a) then
            rebuild (fun j it ->
                if j = i then [ (G.RZ (a +. 0.37), it.Circuit.qubits) ]
                else [ (it.Circuit.gate, it.Circuit.qubits) ])
          else
            rebuild (fun j it ->
                if j = i then
                  [ (it.Circuit.gate, it.Circuit.qubits); (it.Circuit.gate, it.Circuit.qubits) ]
                else [ (it.Circuit.gate, it.Circuit.qubits) ]))

let test_mutation_detection () =
  let st = Random.State.make [| 91 |] in
  let topos = Golden_defs.topologies () in
  let circs = Golden_defs.circuits () in
  let tried = ref 0 in
  List.iter
    (fun (_, topo) ->
      List.iter
        (fun (_, c) ->
          let r = transpile ~router:Qroute.Pipeline.Sabre_router topo c in
          let il = Option.get r.Qroute.Pipeline.initial_layout in
          let fl = Option.get r.Qroute.Pipeline.final_layout in
          for _ = 1 to 4 do
            match mutate st r.Qroute.Pipeline.circuit with
            | None -> ()
            | Some bad ->
                incr tried;
                let v =
                  Qverify.verify_routed ~original:c ~routed:bad ~initial_layout:il
                    ~final_layout:fl ()
                in
                check (Printf.sprintf "mutation flagged: %s" (Qverify.to_json v))
                  (is_not_equiv v)
          done)
        circs)
    topos;
  check "mutations exercised" (!tried > 10)

let test_clifford_mutation () =
  (* all-Clifford circuit: swapped CX operands diverge in the tableau *)
  let ghz = circ 3 [ (G.H, [ 0 ]); (G.CX, [ 0; 1 ]); (G.CX, [ 1; 2 ]) ] in
  let bad = circ 3 [ (G.H, [ 0 ]); (G.CX, [ 1; 0 ]); (G.CX, [ 1; 2 ]) ] in
  check "clifford mutation" (is_not_equiv (Qverify.verify_pair ghz bad));
  let dropped = circ 3 [ (G.H, [ 0 ]); (G.CX, [ 0; 1 ]) ] in
  check "dropped CX" (is_not_equiv (Qverify.verify_pair ghz dropped))

(* ---- agreement with Qsim.Equiv on small circuits ---- *)

let test_qsim_agreement () =
  let st = Random.State.make [| 17 |] in
  let topo = Topology.Devices.linear 6 in
  for trial = 1 to 12 do
    let c = Golden_defs.random_circuit (100 + trial) in
    let router =
      List.nth routers (Random.State.int st (List.length routers)) |> snd
    in
    let r = transpile ~seed:(11 + trial) ~router topo c in
    let il = Option.get r.Qroute.Pipeline.initial_layout in
    let fl = Option.get r.Qroute.Pipeline.final_layout in
    let dense =
      Qsim.Equiv.routed_equal ~logical:c ~routed:r.Qroute.Pipeline.circuit
        ~final_layout:fl
    in
    let sym =
      Qverify.verify_routed ~original:c ~routed:r.Qroute.Pipeline.circuit
        ~initial_layout:il ~final_layout:fl ()
    in
    (* Qverify may abstain, but must never contradict the dense oracle *)
    (match sym with
    | Qverify.Equivalent _ -> check "agree ok" dense
    | Qverify.Not_equivalent _ -> check "agree bad" (not dense)
    | Qverify.Unknown _ -> ());
    check "no abstention on corpus"
      (match sym with Qverify.Unknown _ -> false | _ -> true)
  done

(* ---- device scale: montreal-27 ---- *)

let test_montreal_scale () =
  let topo = Topology.Devices.montreal in
  let c = Qbench.Generators.random_density ~seed:3 ~gates:220 ~density:0.35 20 in
  let r = transpile ~router:Qroute.Pipeline.Sabre_router topo c in
  let il = Option.get r.Qroute.Pipeline.initial_layout in
  let fl = Option.get r.Qroute.Pipeline.final_layout in
  let t0 = Unix.gettimeofday () in
  let v =
    Qverify.verify_routed ~original:c ~routed:r.Qroute.Pipeline.circuit
      ~initial_layout:il ~final_layout:fl ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  check (Printf.sprintf "montreal certify: %s" (Qverify.to_json v)) (is_equiv v);
  check (Printf.sprintf "montreal under 1s (%.3fs)" dt) (dt < 1.0)

let test_json () =
  let a = circ 1 [ (G.T, [ 0 ]) ] in
  let j = Qverify.to_json (Qverify.verify_pair a a) in
  check "json shape"
    (String.length j > 0
    && j.[0] = '{'
    && String.sub j 0 34 = "{\"kind\":\"verdict\",\"verdict\":\"equiv")

let () =
  Alcotest.run "qverify"
    [
      ( "tableau",
        [
          Alcotest.test_case "pauli-mul-dense" `Quick test_pauli_mul;
          Alcotest.test_case "tableau-vs-dense" `Quick test_tableau_vs_dense;
          Alcotest.test_case "fold-vs-dense" `Quick test_fold_vs_dense;
        ] );
      ( "verify",
        [
          Alcotest.test_case "pair-basic" `Quick test_pair_basic;
          Alcotest.test_case "pair-u-gate" `Quick test_pair_u_gate;
          Alcotest.test_case "routed-swap" `Quick test_routed_swap;
          Alcotest.test_case "json" `Quick test_json;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "corpus-cells" `Slow test_pipeline_cells;
          Alcotest.test_case "mutation-detection" `Slow test_mutation_detection;
          Alcotest.test_case "clifford-mutation" `Quick test_clifford_mutation;
          Alcotest.test_case "qsim-agreement" `Slow test_qsim_agreement;
          Alcotest.test_case "montreal-scale" `Slow test_montreal_scale;
        ] );
    ]
