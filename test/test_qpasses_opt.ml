open Mathkit
open Qcircuit
open Qgate
open Qpasses

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let preserves_unitary pass c =
  let u = Circuit.unitary c and u' = Circuit.unitary (pass c) in
  Mat.equal_up_to_phase u u'

(* random circuit generator over a small gate set *)
let random_circuit rng n len =
  let b = Circuit.Builder.create n in
  for _ = 1 to len do
    match Rng.int rng 8 with
    | 0 -> Circuit.Builder.add b Gate.H [ Rng.int rng n ]
    | 1 -> Circuit.Builder.add b (Gate.RZ (Rng.float rng 6.28)) [ Rng.int rng n ]
    | 2 -> Circuit.Builder.add b Gate.T [ Rng.int rng n ]
    | 3 -> Circuit.Builder.add b Gate.X [ Rng.int rng n ]
    | 4 -> Circuit.Builder.add b Gate.SX [ Rng.int rng n ]
    | 5 | 6 ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b Gate.CX [ a; c ]
    | _ ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b (Gate.CP (Rng.float rng 3.0)) [ a; c ]
  done;
  Circuit.Builder.circuit b

(* ---------- Optimize_1q ---------- *)

let test_zsx_identity () =
  (* the zsx rewrite must reproduce the U gate exactly up to phase *)
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let theta = Rng.float rng 6.28
    and phi = Rng.float rng 6.28 -. 3.14
    and lam = Rng.float rng 6.28 -. 3.14 in
    let u = Euler.u_mat theta phi lam in
    let ops = Optimize_1q.zsx_ops theta phi lam in
    let v =
      List.fold_left (fun acc g -> Mat.mul (Unitary.of_gate g) acc) (Mat.identity 2) ops
    in
    check "zsx reproduces u" true (Mat.equal_up_to_phase u v)
  done

let test_zsx_special_cases () =
  (* theta = 0 costs no sx; theta = pi/2 costs one *)
  let count_sx ops = List.length (List.filter (( = ) Gate.SX) ops) in
  checki "theta=0 no sx" 0 (count_sx (Optimize_1q.zsx_ops 0.0 0.4 0.3));
  checki "theta=pi/2 one sx" 1 (count_sx (Optimize_1q.zsx_ops (Float.pi /. 2.0) 0.4 0.3));
  checki "generic two sx" 2 (count_sx (Optimize_1q.zsx_ops 1.0 0.4 0.3))

let test_optimize_1q_merges () =
  let c =
    Circuit.create 1
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.T; qubits = [ 0 ] };
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.S; qubits = [ 0 ] };
      ]
  in
  let c' = Optimize_1q.run Optimize_1q.U_gate c in
  checki "merged into one u" 1 (Circuit.size c');
  check "unitary preserved" true (preserves_unitary (Optimize_1q.run Optimize_1q.U_gate) c)

let test_optimize_1q_cancels_inverse () =
  let c =
    Circuit.create 1
      [ { gate = Gate.H; qubits = [ 0 ] }; { gate = Gate.H; qubits = [ 0 ] } ]
  in
  checki "hh vanishes" 0 (Circuit.size (Optimize_1q.run Optimize_1q.U_gate c))

let test_optimize_1q_stops_at_2q () =
  let c =
    Circuit.create 2
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.H; qubits = [ 0 ] };
      ]
  in
  let c' = Optimize_1q.run Optimize_1q.U_gate c in
  checki "h cx h stays 3 ops" 3 (Circuit.size c')

let test_optimize_1q_random () =
  let rng = Rng.create 77 in
  for _ = 1 to 15 do
    let c = random_circuit rng 3 25 in
    check "1q merge preserves unitary (U)" true
      (preserves_unitary (Optimize_1q.run Optimize_1q.U_gate) c);
    check "1q merge preserves unitary (zsx)" true
      (preserves_unitary (Optimize_1q.run Optimize_1q.Zsx) c)
  done

(* ---------- Commutation ---------- *)

let test_commute_pairs () =
  check "cx shares control" true (Commutation.commute (Gate.CX, [ 0; 1 ]) (Gate.CX, [ 0; 2 ]));
  check "cx shares target" true (Commutation.commute (Gate.CX, [ 0; 2 ]) (Gate.CX, [ 1; 2 ]));
  check "cx chained do not commute" false
    (Commutation.commute (Gate.CX, [ 0; 1 ]) (Gate.CX, [ 1; 2 ]));
  check "rz on control commutes" true (Commutation.commute (Gate.RZ 0.3, [ 0 ]) (Gate.CX, [ 0; 1 ]));
  check "rz on target does not" false
    (Commutation.commute (Gate.RZ 0.3, [ 1 ]) (Gate.CX, [ 0; 1 ]));
  check "x on target commutes" true (Commutation.commute (Gate.X, [ 1 ]) (Gate.CX, [ 0; 1 ]));
  check "x on control does not" false (Commutation.commute (Gate.X, [ 0 ]) (Gate.CX, [ 0; 1 ]));
  check "disjoint always" true (Commutation.commute (Gate.H, [ 0 ]) (Gate.CX, [ 1; 2 ]));
  check "cz diagonal chain commutes" true (Commutation.commute (Gate.CZ, [ 0; 1 ]) (Gate.CZ, [ 1; 2 ]));
  check "cz same pair" true (Commutation.commute (Gate.CZ, [ 0; 1 ]) (Gate.CZ, [ 1; 0 ]))

let test_commutation_sets () =
  (* cx(0,1); cx(0,2); cx(0,1): all share control 0 -> one set on wire 0 *)
  let c =
    Circuit.create 3
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 0; 2 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let an = Commutation.analyze c in
  checki "one set on control wire" 1 (List.length (Commutation.sets_on_wire an 0));
  (* wire 1 sees ops 0 and 2, which commute (same gate) -> one set *)
  checki "one set on wire 1" 1 (List.length (Commutation.sets_on_wire an 1));
  (* h breaks the set *)
  let c2 =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let an2 = Commutation.analyze c2 in
  checki "h splits sets" 3 (List.length (Commutation.sets_on_wire an2 0))

(* the per-wire filter scan [Commutation.analyze] used before it bucketed
   op ids in one pass, kept as the reference: every op touching [q], in
   circuit order, grouped into maximal pairwise-commuting runs; directives
   sit alone *)
let reference_sets_on_wire c q =
  let instrs = Array.of_list (Circuit.instrs c) in
  let ops =
    List.filter
      (fun id -> List.mem q instrs.(id).Circuit.qubits)
      (List.init (Array.length instrs) Fun.id)
  in
  let as_pair (x : Circuit.instr) = (x.gate, x.qubits) in
  let sets = ref [] and current = ref [] in
  let close () =
    if !current <> [] then begin
      sets := List.rev !current :: !sets;
      current := []
    end
  in
  List.iter
    (fun id ->
      let i = instrs.(id) in
      if Gate.is_directive i.gate then begin
        close ();
        current := [ id ];
        close ()
      end
      else if List.for_all (fun m -> Commutation.commute (as_pair instrs.(m)) (as_pair i)) !current
      then current := id :: !current
      else begin
        close ();
        current := [ id ]
      end)
    ops;
  close ();
  List.rev !sets

(* random circuits with barriers, measures and 3-qubit gates *)
let random_mixed_circuit rng n len =
  let b = Circuit.Builder.create n in
  let distinct k =
    let rec pick acc =
      if List.length acc = k then acc
      else
        let q = Rng.int rng n in
        pick (if List.mem q acc then acc else q :: acc)
    in
    pick []
  in
  for _ = 1 to len do
    match Rng.int rng 10 with
    | 0 -> Circuit.Builder.add b Gate.H (distinct 1)
    | 1 -> Circuit.Builder.add b (Gate.RZ (Float.of_int (Rng.int rng 3) *. 0.5)) (distinct 1)
    | 2 -> Circuit.Builder.add b Gate.X (distinct 1)
    | 3 | 4 -> Circuit.Builder.add b Gate.CX (distinct 2)
    | 5 -> Circuit.Builder.add b Gate.CZ (distinct 2)
    | 6 -> Circuit.Builder.add b Gate.CCX (distinct 3)
    | 7 -> Circuit.Builder.add b Gate.CSWAP (distinct 3)
    | 8 -> Circuit.Builder.add b Gate.Measure (distinct 1)
    | _ ->
        let k = 1 + Rng.int rng n in
        Circuit.Builder.add b (Gate.Barrier k) (List.sort compare (distinct k))
  done;
  Circuit.Builder.circuit b

let qcheck_analyze_matches_reference =
  QCheck.Test.make ~name:"analyze = per-wire filter scan" ~count:150
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 3 in
      let c = random_mixed_circuit rng n (5 + Rng.int rng 40) in
      let an = Commutation.analyze c in
      let n_ops = List.length (Circuit.instrs c) in
      List.for_all
        (fun q ->
          let sets = reference_sets_on_wire c q in
          Commutation.sets_on_wire an q = sets
          && List.for_all
               (fun op ->
                 let expected = List.find_index (List.mem op) sets in
                 match Commutation.set_index an ~wire:q ~op with
                 | si -> expected = Some si
                 | exception Not_found -> expected = None)
               (List.init n_ops Fun.id))
        (List.init n Fun.id))

(* ---------- Cancellation ---------- *)

let test_cancel_adjacent_cx () =
  let c =
    Circuit.create 2
      [ { gate = Gate.CX; qubits = [ 0; 1 ] }; { gate = Gate.CX; qubits = [ 0; 1 ] } ]
  in
  checki "cx cx cancels" 0 (Circuit.size (Cancellation.run c))

let test_cancel_through_commuting_cx () =
  (* the motivating example: cx(0,1) and cx(0,1) separated by cx(0,2)
     (shared control) still cancel *)
  let c =
    Circuit.create 3
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 0; 2 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let c' = Cancellation.run c in
  checki "one cx survives" 1 (Circuit.cx_count c');
  check "unitary preserved" true (preserves_unitary Cancellation.run c)

let test_cancel_through_shared_target () =
  (* paper Figure 4: cx(1,2); cx(0,2) commute (same target) *)
  let c =
    Circuit.create 3
      [
        { gate = Gate.CX; qubits = [ 1; 2 ] };
        { gate = Gate.CX; qubits = [ 0; 2 ] };
        { gate = Gate.CX; qubits = [ 1; 2 ] };
      ]
  in
  checki "shared target cancel" 1 (Circuit.cx_count (Cancellation.run c))

let test_cancel_blocked () =
  (* cx(0,1); h 0; cx(0,1) must NOT cancel *)
  let c =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  checki "blocked by h" 2 (Circuit.cx_count (Cancellation.run c))

let test_cancel_rz_merge () =
  let c =
    Circuit.create 2
      [
        { gate = Gate.RZ 0.3; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.RZ 0.4; qubits = [ 0 ] };
      ]
  in
  (* rz commutes with cx control: both rz merge into one *)
  let c' = Cancellation.run c in
  checki "rz merged" 1 (Circuit.gate_count c' "rz");
  check "unitary preserved" true (preserves_unitary Cancellation.run c)

let test_cancel_t_gates_merge () =
  let c =
    Circuit.create 1
      [
        { gate = Gate.T; qubits = [ 0 ] };
        { gate = Gate.T; qubits = [ 0 ] };
        { gate = Gate.T; qubits = [ 0 ] };
        { gate = Gate.T; qubits = [ 0 ] };
      ]
  in
  let c' = Cancellation.run c in
  (* four T = S^2 = Z: merged into a single rz *)
  checki "t gates merged" 1 (Circuit.size c');
  check "unitary preserved" true (preserves_unitary Cancellation.run c)

let test_cancel_random_preserves () =
  let rng = Rng.create 123 in
  for _ = 1 to 15 do
    let c = random_circuit rng 4 30 in
    check "cancellation preserves unitary" true
      (preserves_unitary (Cancellation.run_fixpoint ~max_rounds:4) c)
  done

(* ---------- Blocks ---------- *)

let test_collect_single_block () =
  let c =
    Circuit.create 3
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.RZ 0.3; qubits = [ 1 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 1; 2 ] };
      ]
  in
  let segs = Blocks.collect c in
  let blocks = List.filter_map (function Blocks.Block b -> Some b | _ -> None) segs in
  checki "two blocks" 2 (List.length blocks);
  (match blocks with
  | [ b1; b2 ] ->
      check "first pair" true (b1.pair = (0, 1));
      checki "first block ops (h cx rz cx)" 4 (List.length b1.ops);
      check "second pair" true (b2.pair = (1, 2))
  | _ -> Alcotest.fail "expected two blocks");
  check "roundtrip" true
    (Mat.equal_up_to_phase
       (Circuit.unitary (Blocks.to_circuit 3 segs))
       (Circuit.unitary c))

let test_collect_roundtrip_random () =
  let rng = Rng.create 321 in
  for _ = 1 to 15 do
    let c = random_circuit rng 4 25 in
    let segs = Blocks.collect c in
    check "collect preserves unitary" true
      (Mat.equal_up_to_phase
         (Circuit.unitary (Blocks.to_circuit 4 segs))
         (Circuit.unitary c))
  done

let test_block_unitary () =
  let c =
    Circuit.create 2
      [ { gate = Gate.H; qubits = [ 0 ] }; { gate = Gate.CX; qubits = [ 0; 1 ] } ]
  in
  match Blocks.collect c with
  | [ Blocks.Block b ] ->
      check "block unitary equals circuit" true
        (Mat.equal_up_to_phase (Blocks.block_unitary b) (Circuit.unitary c))
  | _ -> Alcotest.fail "expected a single block"

(* ---------- Unitary synthesis ---------- *)

let test_resynth_swap_absorption () =
  (* cx cx cx (= swap) followed by cx: block is cx-equivalent: resynthesize
     to <= 2 cx.  swap . cx = 2-cx class *)
  let c =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 1; 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let c' = Unitary_synthesis.run c in
  check "unitary preserved" true (preserves_unitary Unitary_synthesis.run c);
  check "cx reduced" true (Circuit.cx_count c' <= 2)

let test_resynth_free_swap () =
  (* paper: "some SWAP gates can be inserted for free" - a generic 3-cx
     block followed by a swap still needs only 3 cx *)
  let rng = Rng.create 55 in
  let u = Randmat.su4 rng in
  let c =
    Circuit.create 2
      [
        { gate = Gate.Unitary2 u; qubits = [ 0; 1 ] };
        { gate = Gate.SWAP; qubits = [ 0; 1 ] };
      ]
  in
  let c' = Unitary_synthesis.run c in
  let final = Basis.run c' in
  check "unitary preserved" true
    (Mat.equal_up_to_phase (Circuit.unitary final) (Circuit.unitary c));
  check "swap absorbed for free" true (Circuit.cx_count final <= 3)

let test_resynth_gain () =
  (* swap . cx block: 4 cx spent, 2 needed -> gain 2 *)
  let b =
    {
      Blocks.pair = (0, 1);
      ops =
        [
          { Circuit.gate = Gate.SWAP; qubits = [ 0; 1 ] };
          { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
        ];
    }
  in
  checki "gain swap+cx" 2 (Unitary_synthesis.resynth_gain b)

let test_resynth_random_preserves () =
  let rng = Rng.create 99 in
  for _ = 1 to 10 do
    let c = random_circuit rng 4 30 in
    check "resynthesis preserves unitary" true (preserves_unitary Unitary_synthesis.run c)
  done

(* the pass without its memo: every block is decided on its own *)
let reference_resynthesis c =
  let improve = function
    | Blocks.Single i -> [ i ]
    | Blocks.Block b ->
        let lo, hi = b.pair in
        let replacement =
          List.map
            (fun (g, qs) ->
              { Circuit.gate = g; qubits = List.map (fun q -> if q = 0 then lo else hi) qs })
            (Synth2q.synthesize (Blocks.block_unitary b))
        in
        let old_cx = Blocks.block_cx_cost b and new_cx = Blocks.ops_cx_cost replacement in
        if new_cx < old_cx || (new_cx = old_cx && List.length replacement < List.length b.ops)
        then replacement
        else b.ops
  in
  Circuit.create (Circuit.n_qubits c) (List.concat_map improve (Blocks.collect c))

(* a small alphabet, so block signatures repeat within one circuit; CX is
   drawn in both orientations, so equal gate sequences recur with the low
   wire as control in one block and as target in another *)
let random_repeating_circuit rng n len =
  let b = Circuit.Builder.create n in
  for _ = 1 to len do
    let a = Rng.int rng n in
    let c = (a + 1 + Rng.int rng (n - 1)) mod n in
    match Rng.int rng 7 with
    | 0 -> Circuit.Builder.add b Gate.H [ a ]
    | 1 -> Circuit.Builder.add b Gate.T [ a ]
    | 2 -> Circuit.Builder.add b Gate.SX [ a ]
    | 3 -> Circuit.Builder.add b (Gate.CP 0.5) [ a; c ]
    | _ -> Circuit.Builder.add b Gate.CX [ a; c ]
  done;
  Circuit.Builder.circuit b

let qcheck_resynth_memo_matches_reference =
  QCheck.Test.make ~name:"memoized run = independent per-block decisions" ~count:200
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 3 in
      let c = random_repeating_circuit rng n (10 + Rng.int rng 50) in
      Circuit.equal (Unitary_synthesis.run c) (reference_resynthesis c))

(* ---------- Basis ---------- *)

let test_basis_output_is_basis () =
  let rng = Rng.create 1010 in
  for _ = 1 to 10 do
    let c = random_circuit rng 3 20 in
    let c' = Basis.run c in
    check "all ops in basis" true (Basis.check c');
    check "unitary preserved" true
      (Mat.equal_up_to_phase (Circuit.unitary c') (Circuit.unitary c))
  done

let test_basis_handles_high_level () =
  let c =
    Circuit.create 4
      [
        { gate = Gate.CCX; qubits = [ 0; 1; 2 ] };
        { gate = Gate.MCZ 3; qubits = [ 0; 1; 2; 3 ] };
        { gate = Gate.CP 0.7; qubits = [ 2; 3 ] };
      ]
  in
  let c' = Basis.run c in
  check "basis" true (Basis.check c');
  check "unitary preserved" true
    (Mat.equal_up_to_phase (Circuit.unitary c') (Circuit.unitary c))

let () =
  Alcotest.run "qpasses_opt"
    [
      ( "optimize_1q",
        [
          Alcotest.test_case "zsx identity" `Quick test_zsx_identity;
          Alcotest.test_case "zsx special cases" `Quick test_zsx_special_cases;
          Alcotest.test_case "merges runs" `Quick test_optimize_1q_merges;
          Alcotest.test_case "cancels inverses" `Quick test_optimize_1q_cancels_inverse;
          Alcotest.test_case "stops at 2q" `Quick test_optimize_1q_stops_at_2q;
          Alcotest.test_case "random preserves" `Quick test_optimize_1q_random;
        ] );
      ( "commutation",
        [
          Alcotest.test_case "pairs" `Quick test_commute_pairs;
          Alcotest.test_case "sets" `Quick test_commutation_sets;
          QCheck_alcotest.to_alcotest qcheck_analyze_matches_reference;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "adjacent cx" `Quick test_cancel_adjacent_cx;
          Alcotest.test_case "through commuting cx" `Quick test_cancel_through_commuting_cx;
          Alcotest.test_case "shared target" `Quick test_cancel_through_shared_target;
          Alcotest.test_case "blocked" `Quick test_cancel_blocked;
          Alcotest.test_case "rz merge" `Quick test_cancel_rz_merge;
          Alcotest.test_case "t merge" `Quick test_cancel_t_gates_merge;
          Alcotest.test_case "random preserves" `Quick test_cancel_random_preserves;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "single block" `Quick test_collect_single_block;
          Alcotest.test_case "random roundtrip" `Quick test_collect_roundtrip_random;
          Alcotest.test_case "block unitary" `Quick test_block_unitary;
        ] );
      ( "unitary_synthesis",
        [
          Alcotest.test_case "swap absorption" `Quick test_resynth_swap_absorption;
          Alcotest.test_case "free swap" `Quick test_resynth_free_swap;
          Alcotest.test_case "gain" `Quick test_resynth_gain;
          Alcotest.test_case "random preserves" `Quick test_resynth_random_preserves;
          QCheck_alcotest.to_alcotest qcheck_resynth_memo_matches_reference;
        ] );
      ( "basis",
        [
          Alcotest.test_case "random output basis" `Quick test_basis_output_is_basis;
          Alcotest.test_case "high level gates" `Quick test_basis_handles_high_level;
        ] );
    ]
