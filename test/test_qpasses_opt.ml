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

(* The pass without its memo: every run's product is built in full and
   read with [Euler.u_params_of_unitary], phase and all.  Also returns the
   exact signature of each run, in flush order. *)
let reference_optimize_1q mode c =
  let n = Circuit.n_qubits c in
  let pending = Array.make (max n 1) None and keys = Array.make (max n 1) "" in
  let out = ref [] and runs = ref [] in
  let flush q =
    (match pending.(q) with
    | None -> ()
    | Some m ->
        runs := keys.(q) :: !runs;
        let theta, phi, lam, _ = Euler.u_params_of_unitary m in
        if not (Euler.is_identity_angles ~eps:1e-10 (theta, phi, lam)) then
          List.iter
            (fun g -> out := { Circuit.gate = g; qubits = [ q ] } :: !out)
            (match mode with
            | Optimize_1q.U_gate -> [ Gate.U (theta, phi, lam) ]
            | Optimize_1q.Zsx -> Optimize_1q.zsx_ops theta phi lam));
    pending.(q) <- None;
    keys.(q) <- ""
  in
  let sig_of g =
    let b = Buffer.create 32 in
    Gate.add_signature b g;
    Buffer.contents b
  in
  List.iter
    (fun (i : Circuit.instr) ->
      match i.gate with
      | Gate.Id -> ()
      | g when Gate.is_one_qubit g ->
          let q = List.hd i.qubits and u = Unitary.of_gate g in
          keys.(q) <- keys.(q) ^ sig_of g;
          pending.(q) <- Some (match pending.(q) with None -> u | Some acc -> Mat.mul u acc)
      | _ ->
          List.iter flush i.qubits;
          out := i :: !out)
    (Circuit.instrs c);
  for q = 0 to n - 1 do
    flush q
  done;
  (Circuit.create n (List.rev !out), List.rev !runs)

(* a small alphabet, so runs repeat within one circuit: both signed zeros,
   angles at and near +-2 pi, and a pair that differs only past single
   precision, so a key that drops float bits merges runs whose outputs
   differ; [Id] inside runs, and 2q gates, barriers and measures to split
   them *)
let run_angles =
  let two_pi = 2.0 *. Float.pi in
  [| 0.0; -0.0; two_pi; -.two_pi; two_pi -. 1e-12; 1e-12 -. two_pi; 0.7; 0.7 +. 1e-12; Float.pi /. 2.0 |]

let random_runs_circuit rng n len =
  let b = Circuit.Builder.create n in
  let angle () = run_angles.(Rng.int rng (Array.length run_angles)) in
  for _ = 1 to len do
    let a = Rng.int rng n in
    match Rng.int rng 14 with
    | 0 | 1 -> Circuit.Builder.add b Gate.CX [ a; (a + 1 + Rng.int rng (n - 1)) mod n ]
    | 2 -> Circuit.Builder.add b (Gate.Barrier 1) [ a ]
    | 3 -> Circuit.Builder.add b (Gate.Barrier n) (List.init n Fun.id)
    | 4 -> Circuit.Builder.add b Gate.Measure [ a ]
    | 5 -> Circuit.Builder.add b Gate.Id [ a ]
    | 6 -> Circuit.Builder.add b Gate.H [ a ]
    | 7 -> Circuit.Builder.add b Gate.SX [ a ]
    | 8 -> Circuit.Builder.add b Gate.T [ a ]
    | 9 | 10 -> Circuit.Builder.add b (Gate.RZ (angle ())) [ a ]
    | 11 -> Circuit.Builder.add b (Gate.RX (angle ())) [ a ]
    | _ -> Circuit.Builder.add b (Gate.U (angle (), 0.3, angle ())) [ a ]
  done;
  Circuit.Builder.circuit b

let optimize_1q_counters col =
  let count name =
    Option.value ~default:0
      (List.assoc_opt ("optimize_1q." ^ name) (Qobs.Collector.counters col))
  in
  (count "runs", count "runs_synthesized")

let qcheck_optimize_1q_memo_matches_reference =
  QCheck.Test.make ~name:"memoized optimize_1q = per-run products, bit for bit" ~count:200
    ~long_factor:20
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 3 in
      let c = random_runs_circuit rng n (10 + Rng.int rng 60) in
      List.for_all
        (fun mode ->
          let col = Qobs.Collector.create () in
          let out = Qobs.with_collector col (fun () -> Optimize_1q.run mode c) in
          let expected, runs = reference_optimize_1q mode c in
          Circuit.bit_equal out expected
          (* every run counted, and one synthesis per distinct signature *)
          && optimize_1q_counters col
             = (List.length runs, List.length (List.sort_uniq compare runs)))
        [ Optimize_1q.U_gate; Optimize_1q.Zsx ])

(* the memo is per call: the counters of a transpile do not depend on the
   trial pool's worker count *)
let test_optimize_1q_counters_across_workers () =
  let c = random_circuit (Rng.create 8) 5 80 in
  let coupling = Topology.Devices.linear 6 in
  let router = List.assoc "nassc" Qroute.Pipeline.routers in
  let counters workers =
    let col = Qobs.Collector.create () in
    let r =
      Qobs.with_collector col (fun () ->
          Qroute.Pipeline.transpile ~trials:4 ~workers ~router coupling c)
    in
    (r.Qroute.Pipeline.circuit, optimize_1q_counters col)
  in
  let c1, (runs1, synth1) = counters 1 and c4, (runs4, synth4) = counters 4 in
  check "same circuit" true (Circuit.bit_equal c1 c4);
  check "runs counted" true (runs1 > 0 && synth1 > 0 && synth1 < runs1);
  checki "runs, 1 vs 4 workers" runs1 runs4;
  checki "runs_synthesized, 1 vs 4 workers" synth1 synth4

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

(* the commutation cache's string key before the int code: exact gate
   signatures plus each operand's index in the sorted union of the two
   operand lists, one byte each, then a separator *)
let reference_key (g1, qs1) (g2, qs2) =
  let all = List.sort_uniq compare (qs1 @ qs2) in
  let buf = Buffer.create 32 in
  let rel qs =
    List.iter
      (fun q -> Buffer.add_char buf (Char.chr (Option.get (List.find_index (( = ) q) all))))
      qs;
    Buffer.add_char buf '\255'
  in
  Gate.add_signature buf g1;
  rel qs1;
  Gate.add_signature buf g2;
  rel qs2;
  Buffer.contents buf

(* the counter traffic that [Commutation.commute] made with the string key
   over a [Hashtbl]: directives and disjoint pairs touch nothing, a
   [Unitary2] operand is an uncached evaluation, and every other pair is a
   lookup that hits iff its key was seen before *)
let reference_traffic seen (lookups, hits, misses, uncached) (g1, qs1) (g2, qs2) =
  let disjoint = not (List.exists (fun q -> List.mem q qs2) qs1) in
  match ((g1 : Gate.t), (g2 : Gate.t)) with
  | _ when Gate.is_directive g1 || Gate.is_directive g2 || disjoint ->
      (lookups, hits, misses, uncached)
  | Unitary2 _, _ | _, Unitary2 _ -> (lookups, hits, misses, uncached + 1)
  | _ ->
      let k = reference_key (g1, qs1) (g2, qs2) in
      if Hashtbl.mem seen k then (lookups + 1, hits + 1, misses, uncached)
      else begin
        Hashtbl.replace seen k ();
        (lookups + 1, hits, misses + 1, uncached)
      end

(* ground truth as [Qlint.Audit] computes it: the unitaries of the two
   orderings as circuits on every wire up to the highest operand *)
let commutes_exactly (g1, qs1) (g2, qs2) =
  let n = 1 + List.fold_left max 0 (qs1 @ qs2) in
  let circuit ops = Circuit.create n (List.map (fun (gate, qubits) -> { Circuit.gate; qubits }) ops) in
  Mat.frobenius_distance
    (Circuit.unitary (circuit [ (g1, qs1); (g2, qs2) ]))
    (Circuit.unitary (circuit [ (g2, qs2); (g1, qs1) ]))
  < 1e-9

let commutation_counters col =
  let count name =
    Option.value ~default:0
      (List.assoc_opt ("commutation." ^ name) (Qobs.Collector.counters col))
  in
  (count "cache_lookups", count "cache_hits", count "cache_misses", count "uncached_evals")

(* angles at and near the points where a rotation commutes with more
   gates, both zeros included: their bits differ, so they are two keys *)
let edge_angles =
  [|
    0.0; -0.0; 1e-12; -1e-12; 1e-6; Float.pi /. 2.0; -.Float.pi /. 2.0;
    (Float.pi /. 2.0) +. 1e-12; Float.pi; -.Float.pi; 2.0 *. Float.pi; 0.7;
  |]

(* a gate of the 1q/2q catalog on distinct wires of 0..3, so every overlap
   pattern of two operand lists occurs *)
let random_catalog_app rng =
  let angle () = edge_angles.(Rng.int rng (Array.length edge_angles)) in
  let wire () = Rng.int rng 4 in
  let one g = (g, [ wire () ]) in
  let two g =
    let a = wire () in
    (g, [ a; (a + 1 + Rng.int rng 3) mod 4 ])
  in
  match Rng.int rng 27 with
  | 0 -> one Gate.Id
  | 1 -> one Gate.X
  | 2 -> one Gate.Y
  | 3 -> one Gate.Z
  | 4 -> one Gate.H
  | 5 -> one Gate.S
  | 6 -> one Gate.Sdg
  | 7 -> one Gate.T
  | 8 -> one Gate.Tdg
  | 9 -> one Gate.SX
  | 10 -> one Gate.SXdg
  | 11 -> one (Gate.RX (angle ()))
  | 12 -> one (Gate.RY (angle ()))
  | 13 -> one (Gate.RZ (angle ()))
  | 14 -> one (Gate.P (angle ()))
  | 15 -> one (Gate.U (angle (), angle (), angle ()))
  | 16 -> two Gate.CX
  | 17 -> two Gate.CY
  | 18 -> two Gate.CZ
  | 19 -> two Gate.CH
  | 20 -> two Gate.SWAP
  | 21 -> two (Gate.CRX (angle ()))
  | 22 -> two (Gate.CRY (angle ()))
  | 23 -> two (Gate.CRZ (angle ()))
  | 24 -> two (Gate.CP (angle ()))
  | 25 -> two (Gate.RZZ (angle ()))
  | _ ->
      two
        (Gate.Unitary2
           (if Rng.int rng 2 = 0 then Unitary.of_gate Gate.CZ else Randmat.su4 rng))

let qcheck_commute_matches_truth_and_old_key =
  QCheck.Test.make ~name:"commute = ground truth, counters = string-key cache" ~count:200
    ~long_factor:20
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let pairs =
        List.init (4 + Rng.int rng 12) (fun _ ->
            let a = random_catalog_app rng in
            (a, random_catalog_app rng))
      in
      let col = Qobs.Collector.create () in
      let seen = Hashtbl.create 16 and expected = ref (0, 0, 0, 0) in
      let answers_ok =
        Qobs.with_collector col (fun () ->
            Commutation.reset_cache ();
            List.for_all
              (fun (a, b) ->
                let truth = commutes_exactly a b in
                List.for_all
                  (fun () ->
                    expected := reference_traffic seen !expected a b;
                    Commutation.commute a b = truth)
                  [ (); () ])
              pairs)
      in
      answers_ok && commutation_counters col = !expected)

(* a long-lived process: the cache is emptied once it holds
   [Commutation.cache_cap] entries and another is added *)
let test_commute_cache_cap () =
  let col = Qobs.Collector.create () in
  let query k =
    ignore (Commutation.commute (Gate.RZ (Float.of_int k *. 1e-3), [ 0 ]) (Gate.CX, [ 0; 1 ]))
  in
  Qobs.with_collector col (fun () ->
      Commutation.reset_cache ();
      for k = 0 to Commutation.cache_cap - 1 do
        query k
      done;
      let _, hits, misses, _ = commutation_counters col in
      checki "cap distinct pairs miss" Commutation.cache_cap misses;
      query 0;
      let _, hits', _, _ = commutation_counters col in
      checki "first pair still a hit at the cap" (hits + 1) hits';
      query Commutation.cache_cap;
      query 0;
      let _, hits'', misses'', _ = commutation_counters col in
      checki "first pair a miss after the reset" (misses + 2) misses'';
      checki "no hit after the reset" hits' hits'')

(* [U] angles of 0.0 and -0.0 are equal floats with different bits: two
   cache entries *)
let test_commute_signed_zero_keys () =
  let col = Qobs.Collector.create () in
  let u zero = (Gate.U (zero, 0.2, 0.3), [ 0 ]) in
  Qobs.with_collector col (fun () ->
      Commutation.reset_cache ();
      List.iter
        (fun zero -> ignore (Commutation.commute (u zero) (Gate.X, [ 0 ])))
        [ 0.0; -0.0; 0.0; -0.0 ]);
  let lookups, hits, misses, _ = commutation_counters col in
  checki "lookups" 4 lookups;
  checki "0.0 and -0.0 miss once each" 2 misses;
  checki "then both hit" 2 hits

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

(* the group key fixes the gate, the wires and their order: a gate on
   reversed wires is another group, even for the symmetric CZ and SWAP,
   and so are two commuting self-inverse gates on the same wires *)
let test_cancel_group_key () =
  let kept what ops =
    let c = Circuit.create 2 (List.map (fun (gate, qubits) -> { Circuit.gate; qubits }) ops) in
    checki what (List.length ops) (Circuit.size (Cancellation.run_fixpoint c))
  in
  kept "cz on reversed wires kept" [ (Gate.CZ, [ 0; 1 ]); (Gate.CZ, [ 1; 0 ]) ];
  kept "swap on reversed wires kept" [ (Gate.SWAP, [ 0; 1 ]); (Gate.SWAP, [ 1; 0 ]) ];
  kept "cz and swap kept" [ (Gate.CZ, [ 0; 1 ]); (Gate.SWAP, [ 0; 1 ]) ];
  kept "id and x kept" [ (Gate.Id, [ 0 ]); (Gate.X, [ 0 ]) ]

let test_cancel_cx_across_rz_control () =
  let c =
    Circuit.create 2
      [
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.RZ 0.3; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let c' = Cancellation.run c in
  check "cx pair cancelled, rz kept" true
    (Circuit.equal c' (Circuit.create 2 [ { gate = Gate.RZ 0.3; qubits = [ 0 ] } ]))

(* the merged angle is summed from 0.0 in circuit order:
   (0.1 + 0.2) + 0.3 is not 0.1 + (0.2 + 0.3) in floats *)
let test_cancel_z_merge_bits () =
  let c =
    Circuit.create 3
      [
        { gate = Gate.RZ 0.1; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.P 0.2; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 2 ] };
        { gate = Gate.RZ 0.3; qubits = [ 0 ] };
      ]
  in
  match Circuit.instrs (Cancellation.run c) with
  | [ { gate = Gate.CX; _ }; { gate = Gate.CX; _ }; { gate = Gate.RZ a; qubits = [ 0 ] } ] ->
      check "merged angle bits" true
        (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float (0.0 +. 0.1 +. 0.2 +. 0.3)))
  | _ -> Alcotest.fail "expected cx cx rz"

(* The whole-circuit cancellation that [Cancellation.run_fixpoint] used
   before its rounds revisited only re-formed commute sets, kept as the
   reference: every round regroups every op of a freshly built circuit,
   with set indices from [reference_sets_on_wire], and the loop stops at the
   first round that leaves the size unchanged.  Returns the circuit and the
   rounds, gates cancelled and z-rotation merges it counts. *)
let reference_fixpoint ?(on_merge = ignore) ~max_rounds c =
  let rounds = ref 0 and cancelled = ref 0 and merged = ref 0 in
  let is_z = function
    | Gate.RZ _ | Gate.P _ | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg -> true
    | _ -> false
  in
  let z_angle = function
    | Gate.RZ a | Gate.P a -> a
    | Gate.Z -> Float.pi
    | Gate.S -> Float.pi /. 2.0
    | Gate.Sdg -> -.Float.pi /. 2.0
    | Gate.T -> Float.pi /. 4.0
    | Gate.Tdg -> -.Float.pi /. 4.0
    | _ -> assert false
  in
  let norm a =
    let two_pi = 2.0 *. Float.pi in
    let a = Float.rem a two_pi in
    if a > Float.pi then a -. two_pi else if a <= -.Float.pi then a +. two_pi else a
  in
  let run c =
    let index = Hashtbl.create 64 in
    for q = 0 to Circuit.n_qubits c - 1 do
      List.iteri
        (fun si set -> List.iter (fun id -> Hashtbl.replace index (q, id) si) set)
        (reference_sets_on_wire c q)
    done;
    let instrs = Array.of_list (Circuit.instrs c) in
    let drop = Array.make (Array.length instrs) false in
    let replace = Hashtbl.create 16 in
    let groups = Hashtbl.create 64 and zgroups = Hashtbl.create 64 in
    let add tbl k id =
      Hashtbl.replace tbl k (id :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
    in
    Array.iteri
      (fun id (i : Circuit.instr) ->
        let sets = List.map (fun q -> (q, Hashtbl.find index (q, id))) i.qubits in
        if Gate.is_self_inverse i.gate && not (Gate.is_directive i.gate) then
          add groups (Gate.name i.gate, i.qubits, sets) id
        else if is_z i.gate then add zgroups (sets, i.qubits) id)
      instrs;
    Hashtbl.iter
      (fun _ ids ->
        let ids = List.sort compare ids in
        let k = List.length ids in
        if k >= 2 then List.iteri (fun pos id -> if pos < k - (k mod 2) then drop.(id) <- true) ids)
      groups;
    Hashtbl.iter
      (fun _ ids ->
        let ids = List.sort compare ids in
        match List.rev ids with
        | last :: (_ :: _ as earlier_rev) ->
            incr merged;
            on_merge (List.length ids);
            let total = List.fold_left (fun acc id -> acc +. z_angle instrs.(id).gate) 0.0 ids in
            List.iter (fun id -> drop.(id) <- true) earlier_rev;
            let total = norm total in
            if Float.abs total < 1e-10 then drop.(last) <- true
            else Hashtbl.replace replace last { (instrs.(last)) with gate = Gate.RZ total }
        | _ -> ())
      zgroups;
    Array.iter (fun d -> if d then incr cancelled) drop;
    let out = ref [] in
    Array.iteri
      (fun id i ->
        if not drop.(id) then
          out := Option.value ~default:i (Hashtbl.find_opt replace id) :: !out)
      instrs;
    Circuit.create (Circuit.n_qubits c) (List.rev !out)
  in
  let rec loop k c =
    if k = 0 then c
    else begin
      incr rounds;
      let c' = run c in
      if Circuit.size c' = Circuit.size c then c' else loop (k - 1) c'
    end
  in
  let out = loop max_rounds c in
  (out, !rounds, !cancelled, !merged)

(* [Cancellation.run_fixpoint] with the three cancellation counters read
   from a Qobs collector *)
let counted_fixpoint ~max_rounds c =
  let col = Qobs.Collector.create () in
  let out = Qobs.with_collector col (fun () -> Cancellation.run_fixpoint ~max_rounds c) in
  let count name =
    Option.value ~default:0 (List.assoc_opt ("cancellation." ^ name) (Qobs.Collector.counters col))
  in
  (out, count "rounds", count "gates_cancelled", count "z_rotations_merged")

(* random circuits over Clifford+T, SWAP, the 3-qubit CCX, CCZ and CSWAP,
   z rotations at multiples of pi/2 and both signed zeros, RX and Measure
   as blockers, and full-width barriers: gates that cancel or merge often
   enough that a removal in one round opens another in the next.  A 3-qubit
   gate repeats the last one half the time, so that wide pairs meet. *)
let random_cancellable_circuit rng n len =
  let b = Circuit.Builder.create n in
  let angles = [| Float.pi; Float.pi /. 2.0; -.Float.pi /. 2.0; 0.25; 1.5 |] in
  let last_wide = ref None in
  for _ = 1 to len do
    (* half the ops start on the first three wires, so that wide circuits
       still stack gates on one another *)
    let a = Rng.int rng (if Rng.int rng 2 = 0 then min n 3 else n) in
    let c = (a + 1 + Rng.int rng (n - 1)) mod n in
    let angle () = angles.(Rng.int rng (Array.length angles)) in
    match Rng.int rng 22 with
    | 0 | 1 -> Circuit.Builder.add b Gate.CX [ a; c ]
    | 2 -> Circuit.Builder.add b Gate.CZ [ a; c ]
    | 3 -> Circuit.Builder.add b Gate.SWAP [ a; c ]
    | 4 -> Circuit.Builder.add b Gate.X [ a ]
    | 5 -> Circuit.Builder.add b Gate.Y [ a ]
    | 6 -> Circuit.Builder.add b Gate.Z [ a ]
    | 7 -> Circuit.Builder.add b Gate.S [ a ]
    | 8 -> Circuit.Builder.add b Gate.T [ a ]
    | 9 -> Circuit.Builder.add b Gate.Tdg [ a ]
    | 10 -> Circuit.Builder.add b Gate.SX [ a ]
    | 11 -> Circuit.Builder.add b (Gate.RZ (angle ())) [ a ]
    | 12 -> Circuit.Builder.add b (Gate.P (angle ())) [ a ]
    | 13 -> Circuit.Builder.add b (Gate.RZ (if Rng.int rng 2 = 0 then 0.0 else -0.0)) [ a ]
    | 14 -> Circuit.Builder.add b (Gate.RX 0.7) [ a ]
    | 15 when Rng.int rng 3 = 0 -> Circuit.Builder.add b Gate.Measure [ a ]
    | 16 when Rng.int rng 4 = 0 -> Circuit.Builder.add b (Gate.Barrier n) (List.init n Fun.id)
    | (17 | 18) when n >= 3 -> (
        match !last_wide with
        | Some (gate, qubits) when Rng.int rng 2 = 0 -> Circuit.Builder.add b gate qubits
        | _ ->
            let others = List.filter (fun q -> q <> a && q <> c) (List.init n Fun.id) in
            let d = List.nth others (Rng.int rng (n - 2)) in
            let gate = [| Gate.CCX; Gate.CCZ; Gate.CSWAP |].(Rng.int rng 3) in
            last_wide := Some (gate, [ a; c; d ]);
            Circuit.Builder.add b gate [ a; c; d ])
    | _ -> Circuit.Builder.add b Gate.H [ a ]
  done;
  Circuit.Builder.circuit b

(* cases seen, cases whose second round removed gates, cases that cancel a
   3-qubit gate, and cases that merge a z-rotation group of 3 or more *)
let fixpoint_cases = ref 0
let fixpoint_cascades = ref 0
let fixpoint_wide_cancels = ref 0
let fixpoint_long_merges = ref 0

let qcheck_fixpoint_matches_reference =
  QCheck.Test.make ~name:"run_fixpoint = whole-circuit reference" ~count:400 ~long_factor:20
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 11 in
      let c = random_cancellable_circuit rng n (4 + Rng.int rng (20 + (8 * n))) in
      incr fixpoint_cases;
      let _, _, cancelled1, _ = reference_fixpoint ~max_rounds:1 c in
      let long_merge = ref false in
      let out2, _, cancelled2, _ =
        reference_fixpoint ~on_merge:(fun k -> if k >= 3 then long_merge := true) ~max_rounds:2 c
      in
      let wide c =
        List.length
          (List.filter (fun (i : Circuit.instr) -> List.length i.qubits = 3) (Circuit.instrs c))
      in
      if cancelled2 > cancelled1 then incr fixpoint_cascades;
      if wide out2 < wide c then incr fixpoint_wide_cancels;
      if !long_merge then incr fixpoint_long_merges;
      List.for_all
        (fun max_rounds ->
          let out, rounds, cancelled, merged = counted_fixpoint ~max_rounds c in
          let out', rounds', cancelled', merged' = reference_fixpoint ~max_rounds c in
          Circuit.bit_equal out out' && rounds = rounds' && cancelled = cancelled' && merged = merged')
        [ 1; 2; 3; 4; 5 ])

(* the property above, failing too when fewer than 1 case in 25 had a
   second round that removed gates, cancelled a 3-qubit gate, or merged a
   z-rotation group of 3 or more: a generator that lost one of those powers
   would pass the equality without ever exercising re-formed sets, wide
   keys or long merge chains *)
let fixpoint_matches_reference =
  let name, speed, run = QCheck_alcotest.to_alcotest qcheck_fixpoint_matches_reference in
  ( name,
    speed,
    fun () ->
      fixpoint_cases := 0;
      fixpoint_cascades := 0;
      fixpoint_wide_cancels := 0;
      fixpoint_long_merges := 0;
      run ();
      List.iter
        (fun (what, k) ->
          check
            (Printf.sprintf "%s in %d of %d cases" what k !fixpoint_cases)
            true
            (k * 25 >= !fixpoint_cases))
        [
          ("second round removes gates", !fixpoint_cascades);
          ("a 3-qubit gate cancels", !fixpoint_wide_cancels);
          ("a z group of 3 or more merges", !fixpoint_long_merges);
        ] )

(* S H X X H Sdg on one wire: each round exposes the next pair, and the
   round that removes nothing still counts *)
let test_cancel_cascade_rounds () =
  let c =
    Circuit.create 1
      (List.map
         (fun gate -> { Circuit.gate; qubits = [ 0 ] })
         [ Gate.S; Gate.H; Gate.X; Gate.X; Gate.H; Gate.Sdg ])
  in
  List.iter
    (fun (max_rounds, size, rounds, cancelled, merged) ->
      let out, rounds', cancelled', merged' = counted_fixpoint ~max_rounds c in
      let at what = Printf.sprintf "%s at max_rounds %d" what max_rounds in
      checki (at "size") size (Circuit.size out);
      checki (at "rounds") rounds rounds';
      checki (at "gates cancelled") cancelled cancelled';
      checki (at "z rotations merged") merged merged')
    [ (1, 4, 1, 2, 0); (2, 2, 2, 4, 0); (3, 0, 3, 6, 1); (4, 0, 4, 6, 1) ]

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

(* a block's unitary, its low wire as local qubit 0, as the synthesis pass
   reads it *)
let block_unitary (b : Blocks.block) =
  Blocks.unitary ~zero:(fst b.pair)
    (fun (i : Circuit.instr) -> i.gate)
    (fun (i : Circuit.instr) -> i.qubits)
    b.ops

(* The one block-unitary fold against the circuit semantics: a random run
   of 1q and 2q gates on one pair of a 5-qubit register, read with either
   wire as local qubit 0, equals [Circuit.unitary] of the same run moved
   onto wires 0 (the [zero] wire) and 1, every entry bit for bit *)
let qcheck_block_unitary_bits =
  QCheck.Test.make ~name:"Blocks.unitary = Circuit.unitary on wires 0/1, bit for bit"
    ~count:300 ~long_factor:20
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let a = Rng.int rng 5 in
      let b = (a + 1 + Rng.int rng 4) mod 5 in
      let zero = if Rng.bool rng then a else b in
      let on_pair () = if Rng.bool rng then [ a; b ] else [ b; a ] in
      let one () = [ Rng.pick rng [ a; b ] ] in
      let ops =
        List.init (1 + Rng.int rng 12) (fun _ ->
            let gate, qubits =
              match Rng.int rng 9 with
              | 0 -> (Gate.H, one ())
              | 1 -> (Gate.RZ (Rng.float rng 6.28), one ())
              | 2 -> (Gate.U (Rng.float rng 3.0, Rng.float rng 3.0, Rng.float rng 3.0), one ())
              | 3 -> (Gate.SX, one ())
              | 4 -> (Gate.CX, on_pair ())
              | 5 -> (Gate.CP (Rng.float rng 3.0), on_pair ())
              | 6 -> (Gate.RZZ (Rng.float rng 3.0), on_pair ())
              | 7 -> (Gate.SWAP, on_pair ())
              | _ -> (Gate.Unitary2 (Randmat.su4 rng), on_pair ())
            in
            { Circuit.gate; qubits })
      in
      let moved =
        Circuit.create 2
          (List.map
             (fun (i : Circuit.instr) ->
               { i with qubits = List.map (fun q -> if q = zero then 0 else 1) i.qubits })
             ops)
      in
      let got =
        Mat.storage
          (Blocks.unitary ~zero (fun (i : Circuit.instr) -> i.gate)
             (fun (i : Circuit.instr) -> i.qubits)
             ops)
      and want = Mat.storage (Circuit.unitary moved) in
      let bits a = Array.init (Float.Array.length a) (fun k -> Int64.bits_of_float (Float.Array.get a k)) in
      bits got = bits want)

let test_block_unitary () =
  let c =
    Circuit.create 2
      [ { gate = Gate.H; qubits = [ 0 ] }; { gate = Gate.CX; qubits = [ 0; 1 ] } ]
  in
  match Blocks.collect c with
  | [ Blocks.Block b ] ->
      check "block unitary equals circuit" true
        (Mat.equal_up_to_phase (block_unitary b) (Circuit.unitary c))
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
  (* swap . cx block: 4 cx spent, 2 needed -> the pass saves 2 *)
  let c =
    Circuit.create 2
      [
        { Circuit.gate = Gate.SWAP; qubits = [ 0; 1 ] };
        { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  checki "gain swap+cx" 2
    (Blocks.ops_cx_cost (Circuit.instrs c)
    - Blocks.ops_cx_cost (Circuit.instrs (Unitary_synthesis.run c)))

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
            (Synth2q.synthesize (block_unitary b))
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
    ~long_factor:20
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 3 in
      let c = random_repeating_circuit rng n (10 + Rng.int rng 50) in
      Circuit.bit_equal (Unitary_synthesis.run c) (reference_resynthesis c))

(* Single two-wire blocks at, and one op past, the core length of their
   class, where the class-first keep and the build-then-compare rule of
   [reference_resynthesis] meet. *)

let angle rng = Rng.float rng (2.0 *. Float.pi) -. Float.pi

(* identities up to global phase: the dressing they leave vanishes, so the
   replacement of a block that is a core plus one of them is the bare core
   and wins on op count *)
let phase_only rng =
  Rng.pick rng
    [ Gate.RZ 0.0; Gate.RZ (2.0 *. Float.pi); Gate.RX (2.0 *. Float.pi); Gate.U (0.0, 0.0, 0.0) ]

let random_1q rng =
  match Rng.int rng 4 with
  | 0 -> phase_only rng
  | 1 -> Gate.RX (angle rng)
  | 2 -> Gate.RZ (angle rng)
  | _ -> Gate.U (angle rng, angle rng, angle rng)

(* canonical coordinates pi/4 > x > y > z > 0 *)
let chamber rng =
  let s = List.sort (fun a b -> compare b a) (List.init 3 (fun _ -> 0.01 +. Rng.float rng 0.76)) in
  match s with [ x; y; z ] -> (x, y, z) | _ -> assert false

(* the skeleton of one class, on wires [a] and [b] = 1 - a *)
let skeleton rng =
  let a = Rng.int rng 2 in
  let b = 1 - a in
  let cx c t = (Gate.CX, [ c; t ]) in
  match Rng.int rng 6 with
  | 0 -> [ cx a b ]
  | 1 ->
      (* the class-2 core itself, or the same skeleton with random angles *)
      let x, y, _ = chamber rng in
      let g0, g1 =
        if Rng.bool rng then (Gate.RX (-2.0 *. x), Gate.RZ (-2.0 *. y))
        else (random_1q rng, random_1q rng)
      in
      [ cx 0 1; (g0, [ 0 ]); (g1, [ 1 ]); cx 0 1 ]
  | 2 -> [ cx a b; (random_1q rng, [ a ]); (random_1q rng, [ b ]); cx a b ]
  | 3 | 4 ->
      (* the class-3 core in either CX orientation, its angles canonical
         or random *)
      let x, y, z = chamber rng in
      let h = Float.pi /. 2.0 in
      let t1, t2, t3 =
        if Rng.bool rng then (h +. (2.0 *. z), h -. (2.0 *. x), h -. (2.0 *. y))
        else (angle rng, angle rng, angle rng)
      in
      [ cx b a; (Gate.RY t3, [ b ]); cx a b; (Gate.RZ t1, [ a ]); (Gate.RY t2, [ b ]); cx b a ]
  | _ -> [ (Gate.SWAP, [ a; b ]) ]

(* the skeleton as is, or with one 1q gate inserted anywhere *)
let boundary_block rng =
  let ops = skeleton rng in
  let ops =
    if Rng.bool rng then ops
    else
      let at = Rng.int rng (List.length ops + 1) in
      let extra = ((if Rng.bool rng then phase_only rng else random_1q rng), [ Rng.int rng 2 ]) in
      List.filteri (fun i _ -> i < at) ops @ (extra :: List.filteri (fun i _ -> i >= at) ops)
  in
  Circuit.create 2 (List.map (fun (g, qs) -> { Circuit.gate = g; qubits = qs }) ops)

(* cases at the core length, one op past it, and past it with a
   core-length replacement that wins *)
let boundary_cases = ref 0
let boundary_at = ref 0
let boundary_past = ref 0
let boundary_past_replaced = ref 0

let qcheck_resynth_boundary_matches_reference =
  QCheck.Test.make ~name:"class-first keep = reference at the core length" ~count:300
    ~long_factor:20
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let c = boundary_block (Rng.create seed) in
      let b = { Blocks.pair = (0, 1); ops = Circuit.instrs c } in
      let ((_, cls) as k) = Synth2q.kak (block_unitary b) in
      let core = Synth2q.core_length cls and built = Synth2q.of_kak k in
      let cx = Blocks.block_cx_cost b and ops = List.length b.ops in
      let reference = reference_resynthesis c in
      incr boundary_cases;
      if ops = core then incr boundary_at;
      if ops = core + 1 then incr boundary_past;
      if ops = core + 1 && not (Circuit.bit_equal reference c) then incr boundary_past_replaced;
      Circuit.bit_equal (Unitary_synthesis.run c) reference
      (* the replacement is the core, [cls] CX among its [core] ops, dressed
         with U gates *)
      && List.length (List.filter (function Gate.U _, _ -> false | _ -> true) built) = core
      && List.length (List.filter (fun (g, _) -> g = Gate.CX) built) = cls
      (* the class-first keep holds exactly when a core-length replacement,
         the best the class allows, would be kept by the reference rule *)
      && Unitary_synthesis.keep_by_class ~cls ~cx ~ops
         = not (cls < cx || (cls = cx && core < ops)))

(* the property above, failing too when its generator stops reaching the
   boundary: at least 1 case in 5 at the core length, 1 in 5 one op past
   it, and 1 in 50 past it with a winning core-length replacement *)
let resynth_boundary_matches_reference =
  let name, speed, run = QCheck_alcotest.to_alcotest qcheck_resynth_boundary_matches_reference in
  ( name,
    speed,
    fun () ->
      List.iter (fun r -> r := 0)
        [ boundary_cases; boundary_at; boundary_past; boundary_past_replaced ];
      run ();
      check
        (Printf.sprintf "%d at, %d past, %d past and replaced, of %d cases" !boundary_at
           !boundary_past !boundary_past_replaced !boundary_cases)
        true
        (!boundary_at * 5 >= !boundary_cases
        && !boundary_past * 5 >= !boundary_cases
        && !boundary_past_replaced * 50 >= !boundary_cases) )

(* every class, CX count and op count a block can have: the class-first
   keep holds exactly when no replacement of the class, at any op count it
   can have, is taken by the reference rule *)
let test_keep_by_class_exhaustive () =
  for cls = 0 to 3 do
    for cx = 0 to 8 do
      for ops = 1 to 12 do
        let core = Synth2q.core_length cls in
        let taken len = cls < cx || (cls = cx && len < ops) in
        check
          (Printf.sprintf "cls=%d cx=%d ops=%d" cls cx ops)
          (not (List.exists taken (List.init 16 (fun i -> core + i))))
          (Unitary_synthesis.keep_by_class ~cls ~cx ~ops)
      done
    done
  done

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
          QCheck_alcotest.to_alcotest qcheck_optimize_1q_memo_matches_reference;
          Alcotest.test_case "counters 1 vs 4 workers" `Quick
            test_optimize_1q_counters_across_workers;
        ] );
      ( "commutation",
        [
          Alcotest.test_case "pairs" `Quick test_commute_pairs;
          Alcotest.test_case "sets" `Quick test_commutation_sets;
          QCheck_alcotest.to_alcotest qcheck_analyze_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_commute_matches_truth_and_old_key;
          Alcotest.test_case "cache cap" `Quick test_commute_cache_cap;
          Alcotest.test_case "signed zero keys" `Quick test_commute_signed_zero_keys;
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
          Alcotest.test_case "cascade rounds" `Quick test_cancel_cascade_rounds;
          Alcotest.test_case "group key" `Quick test_cancel_group_key;
          Alcotest.test_case "cx across rz on control" `Quick test_cancel_cx_across_rz_control;
          Alcotest.test_case "z merge bits" `Quick test_cancel_z_merge_bits;
          fixpoint_matches_reference;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "single block" `Quick test_collect_single_block;
          Alcotest.test_case "random roundtrip" `Quick test_collect_roundtrip_random;
          Alcotest.test_case "block unitary" `Quick test_block_unitary;
          QCheck_alcotest.to_alcotest qcheck_block_unitary_bits;
        ] );
      ( "unitary_synthesis",
        [
          Alcotest.test_case "swap absorption" `Quick test_resynth_swap_absorption;
          Alcotest.test_case "free swap" `Quick test_resynth_free_swap;
          Alcotest.test_case "gain" `Quick test_resynth_gain;
          Alcotest.test_case "random preserves" `Quick test_resynth_random_preserves;
          QCheck_alcotest.to_alcotest qcheck_resynth_memo_matches_reference;
          resynth_boundary_matches_reference;
          Alcotest.test_case "class-first keep, every case" `Quick test_keep_by_class_exhaustive;
        ] );
      ( "basis",
        [
          Alcotest.test_case "random output basis" `Quick test_basis_output_is_basis;
          Alcotest.test_case "high level gates" `Quick test_basis_handles_high_level;
        ] );
    ]
