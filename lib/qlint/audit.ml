open Qgate
open Mathkit

type report = {
  pairs_checked : int;
  scenarios_checked : int;
  diags : Diagnostic.t list;
}

let c_pairs = Qobs.counter "qlint.audit_pairs"
let c_scenarios = Qobs.counter "qlint.audit_scenarios"

let instr gate qubits = { Qcircuit.Circuit.gate; qubits }

let pp_app ppf (g, qs) =
  Format.fprintf ppf "%s[%s]" (Gate.name g)
    (String.concat "," (List.map string_of_int qs))

(* ---- commutation tables ---- *)

let gates_1q =
  [
    Gate.Id; Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdg; Gate.T; Gate.Tdg;
    Gate.SX; Gate.SXdg; Gate.RX 0.3; Gate.RY 0.7; Gate.RZ 1.1; Gate.P 0.4;
    Gate.U (0.3, 0.2, 0.1);
  ]

let gates_2q =
  [
    Gate.CX; Gate.CY; Gate.CZ; Gate.CH; Gate.SWAP; Gate.CRX 0.5; Gate.CRY 0.2;
    Gate.CRZ 0.9; Gate.CP 0.6; Gate.RZZ 0.8;
  ]

(* all qubit-overlap patterns the routing walks can produce, as (qs1, qs2)
   templates per arity pair *)
let patterns a1 a2 =
  match (a1, a2) with
  | 1, 1 -> [ ([ 0 ], [ 0 ]); ([ 0 ], [ 1 ]) ]
  | 1, 2 -> [ ([ 0 ], [ 0; 1 ]); ([ 1 ], [ 0; 1 ]) ]
  | 2, 1 -> [ ([ 0; 1 ], [ 0 ]); ([ 0; 1 ], [ 1 ]) ]
  | 2, 2 ->
      [
        ([ 0; 1 ], [ 0; 1 ]); ([ 0; 1 ], [ 1; 0 ]); ([ 0; 1 ], [ 1; 2 ]);
        ([ 0; 1 ], [ 2; 1 ]); ([ 0; 1 ], [ 0; 2 ]); ([ 0; 1 ], [ 2; 0 ]);
      ]
  | _ -> []

let commutation_tables () =
  let pairs = ref 0 in
  let diags = ref [] in
  let check (g1, qs1) (g2, qs2) =
    incr pairs;
    Qobs.incr c_pairs;
    let n = 1 + List.fold_left max 0 (qs1 @ qs2) in
    let c12 = Qcircuit.Circuit.create n [ instr g1 qs1; instr g2 qs2 ] in
    let c21 = Qcircuit.Circuit.create n [ instr g2 qs2; instr g1 qs1 ] in
    (* ground truth: exact commutation of the composed circuit unitaries,
       computed through the circuit-semantics path rather than the pass's
       own pairwise embedding *)
    let exact =
      Mat.frobenius_distance (Qcircuit.Circuit.unitary c12) (Qcircuit.Circuit.unitary c21)
      < 1e-9
    in
    let claimed = Qpasses.Commutation.commute (g1, qs1) (g2, qs2) in
    if claimed <> exact then
      diags :=
        Diagnostic.errorf ~rule:"audit.commutation"
          "commute %a vs %a: table says %b, ground truth %b" pp_app (g1, qs1) pp_app
          (g2, qs2) claimed exact
        :: !diags;
    if claimed && not (Qsim.Equiv.unitary_equal c12 c21) then
      diags :=
        Diagnostic.errorf ~rule:"audit.commutation"
          "commute %a vs %a: claimed commuting but reordering changes semantics" pp_app
          (g1, qs1) pp_app (g2, qs2)
        :: !diags
  in
  let catalog = List.map (fun g -> (g, 1)) gates_1q @ List.map (fun g -> (g, 2)) gates_2q in
  List.iter
    (fun (g1, a1) ->
      List.iter
        (fun (g2, a2) ->
          List.iter (fun (qs1, qs2) -> check (g1, qs1) (g2, qs2)) (patterns a1 a2))
        catalog)
    catalog;
  { pairs_checked = !pairs; scenarios_checked = 0; diags = List.rev !diags }

(* ---- savings estimates (paper eq. 1) ---- *)

let swap_u = Unitary.of_gate Gate.SWAP

let count_cx ops = List.length (List.filter (fun (g, _) -> g = Gate.CX) ops)

let circuit_of_ops ops =
  Qcircuit.Circuit.create 2 (List.map (fun (g, qs) -> instr g qs) ops)

(* one 2q unitary: fast chamber classification = exact classification =
   CNOTs the synthesizer actually spends, and the synthesis reconstructs
   the input *)
let audit_unitary ~what diags u =
  let fast = Qpasses.Weyl.cnot_cost_fast u in
  let exact = Qpasses.Weyl.cnot_cost u in
  if fast <> exact then
    diags :=
      Diagnostic.errorf ~rule:"audit.savings"
        "%s: cnot_cost_fast says %d, eigendecomposition says %d" what fast exact
      :: !diags;
  let ops = Qpasses.Synth2q.synthesize u in
  let spent = count_cx ops in
  if spent <> exact then
    diags :=
      Diagnostic.errorf ~rule:"audit.savings"
        "%s: synthesis spends %d CNOTs, chamber position says %d" what spent exact
      :: !diags;
  if not (Mat.equal_up_to_phase (Qpasses.Synth2q.ops_unitary 2 ops) u) then
    diags :=
      Diagnostic.errorf ~rule:"audit.savings"
        "%s: synthesized circuit does not reconstruct the unitary" what
      :: !diags;
  exact

let dress rng u =
  let k1 = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
  let k2 = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
  Mat.mul k1 (Mat.mul u k2)

let cx a b = instr Gate.CX [ a; b ]

let cancellation_savings full =
  let opt = Qpasses.Cancellation.run_fixpoint full in
  (Qcircuit.Circuit.cx_count full - Qcircuit.Circuit.cx_count opt, opt)

(* random SU(4) blocks whose C_2q bonus is audited per [savings] run *)
let c2q_samples = 12

let savings ?(seed = 2022) () =
  let rng = Rng.create seed in
  let scenarios = ref 0 in
  let diags = ref [] in
  let scenario () =
    incr scenarios;
    Qobs.incr c_scenarios
  in
  (* chamber classes: a representative per minimal CNOT count, dressed in
     random locals so the classification (not the construction) is tested *)
  let classes =
    [
      ("0-cnot class", Qpasses.Weyl.canonical_gate 0.0 0.0 0.0);
      ("1-cnot class", Qpasses.Weyl.canonical_gate (Float.pi /. 4.0) 0.0 0.0);
      ("2-cnot class", Qpasses.Weyl.canonical_gate 0.7 0.3 0.0);
      ("3-cnot class", Qpasses.Weyl.canonical_gate 0.7 0.5 0.2);
    ]
  in
  List.iter
    (fun (what, n_gate) ->
      scenario ();
      ignore (audit_unitary ~what diags (dress rng n_gate)))
    classes;
  (* C_2q: the SWAP-merge bonus (cost(B) + 3) - cost(SWAP.B) equals the
     CNOTs re-synthesis actually recovers, and merging preserves semantics *)
  for k = 1 to c2q_samples do
    scenario ();
    let b = Randmat.su4 rng in
    let merged = Mat.mul swap_u b in
    let what = Printf.sprintf "c2q sample %d" k in
    let cost_b = audit_unitary ~what:(what ^ " (block)") diags b in
    let cost_m = audit_unitary ~what:(what ^ " (merged)") diags merged in
    let claimed =
      max 0 (Qpasses.Weyl.cnot_cost_fast b + 3 - Qpasses.Weyl.cnot_cost_fast merged)
    in
    if claimed <> max 0 (cost_b + 3 - cost_m) then
      diags :=
        Diagnostic.errorf ~rule:"audit.savings"
          "%s: C_2q bonus %d disagrees with realized synthesis savings %d" what claimed
          (max 0 (cost_b + 3 - cost_m))
        :: !diags;
    let separate =
      Qcircuit.Circuit.create 2
        [ instr (Gate.Unitary2 b) [ 0; 1 ]; cx 0 1; cx 1 0; cx 0 1 ]
    in
    let merged_c = circuit_of_ops (Qpasses.Synth2q.synthesize merged) in
    if not (Qsim.Equiv.unitary_equal separate merged_c) then
      diags :=
        Diagnostic.errorf ~rule:"audit.savings" "%s: merged block changes semantics" what
        :: !diags
  done;
  (* C_commute1 = 2: the oriented SWAP's first CNOT cancels an earlier
     cx(c,t), possibly through commuting gates in between *)
  List.iter
    (fun (what, between) ->
      scenario ();
      let full =
        Qcircuit.Circuit.create 2 (((cx 0 1 :: between) @ [ cx 0 1; cx 1 0; cx 0 1 ]))
      in
      let saved, opt = cancellation_savings full in
      if saved <> 2 then
        diags :=
          Diagnostic.errorf ~rule:"audit.savings"
            "%s: C_commute1 claims 2 saved CNOTs, cancellation realized %d" what saved
          :: !diags;
      if not (Qsim.Equiv.unitary_equal full opt) then
        diags :=
          Diagnostic.errorf ~rule:"audit.savings" "%s: cancellation changed semantics" what
          :: !diags)
    [
      ("commute1 adjacent", []);
      ("commute1 through rz on control", [ instr (Gate.RZ 0.7) [ 0 ] ]);
      ("commute1 through x on target", [ instr Gate.X [ 1 ] ]);
    ];
  (* C_commute2 = 2: two same-pair SWAPs sandwiching a commuting gate lose
     one CNOT each *)
  List.iter
    (fun (what, middle) ->
      scenario ();
      let swap_dec = [ cx 0 1; cx 1 0; cx 0 1 ] in
      let full = Qcircuit.Circuit.create 2 (swap_dec @ middle @ swap_dec) in
      let saved, opt = cancellation_savings full in
      if saved < 2 then
        diags :=
          Diagnostic.errorf ~rule:"audit.savings"
            "%s: C_commute2 claims >= 2 saved CNOTs, cancellation realized %d" what saved
          :: !diags;
      if not (Qsim.Equiv.unitary_equal full opt) then
        diags :=
          Diagnostic.errorf ~rule:"audit.savings" "%s: cancellation changed semantics" what
          :: !diags)
    [
      ("commute2 sandwiched cx", [ cx 0 1 ]);
      ("commute2 empty sandwich", []);
    ];
  (* the optimization-aware decomposition itself: an oriented SWAP (with 1q
     gates pulled through) must still implement SWAP *)
  List.iter
    (fun (what, ops, reference) ->
      scenario ();
      let finalized =
        Qcircuit.Circuit.create 2 (Qroute.Nassc.finalize ops)
      in
      if not (Qsim.Equiv.unitary_equal finalized reference) then
        diags :=
          Diagnostic.errorf ~rule:"audit.savings"
            "%s: oriented SWAP decomposition changes semantics" what
          :: !diags)
    [
      ( "oriented swap (1,0)",
        [ { Qroute.Engine.gate = Gate.SWAP; op_qubits = [ 0; 1 ];
            tag = Qroute.Engine.Swap_orient (1, 0) } ],
        Qcircuit.Circuit.create 2 [ instr Gate.SWAP [ 0; 1 ] ] );
      ( "oriented swap pulls 1q through",
        [ { Qroute.Engine.gate = Gate.H; op_qubits = [ 0 ];
            tag = Qroute.Engine.Not_swap };
          { Qroute.Engine.gate = Gate.SWAP; op_qubits = [ 0; 1 ];
            tag = Qroute.Engine.Swap_orient (0, 1) } ],
        Qcircuit.Circuit.create 2 [ instr Gate.H [ 0 ]; instr Gate.SWAP [ 0; 1 ] ] );
    ];
  { pairs_checked = 0; scenarios_checked = !scenarios; diags = List.rev !diags }

(* ---- optimality: no router may beat the exact oracle ----

   The oracle's free-layout minimum is a hard floor for any router's
   inserted-swap count; a router below it means either the oracle's
   search is unsound or the router's swap accounting lies.  Audited on a
   handful of gap-corpus instances small enough that certification is
   milliseconds, so this runs in the same CI lint job as the other
   audits. *)

let optimality ?(seed = Qbench.Gapcorpus.seed) () =
  let scenarios = ref 0 in
  let diags = ref [] in
  let entry name =
    List.find (fun (e : Qbench.Suite.entry) -> e.name = name)
      Qbench.Gapcorpus.circuits
  in
  let instances = [ "ghz4"; "qft4"; "bv4" ] in
  let topologies =
    List.filter
      (fun (t, _) -> t = "line5" || t = "ring5")
      Qbench.Gapcorpus.topologies
  in
  List.iter
    (fun cname ->
      List.iter
        (fun (tname, coupling) ->
          incr scenarios;
          Qobs.incr c_scenarios;
          let row = Qbench.Gapcorpus.row ~seed (entry cname) coupling in
          match row.optimal with
          | None ->
              diags :=
                Diagnostic.errorf ~rule:"audit.optimality"
                  "%s/%s: oracle budget exceeded on an audit-sized instance" cname
                  tname
                :: !diags
          | Some optimal ->
              List.iter
                (fun (rname, n_swaps) ->
                  if n_swaps < optimal then
                    diags :=
                      Diagnostic.errorf ~rule:"audit.optimality"
                        "%s/%s: %s inserted %d swaps, below the certified optimum %d"
                        cname tname rname n_swaps optimal
                      :: !diags)
                row.swaps)
        topologies)
    instances;
  { pairs_checked = 0; scenarios_checked = !scenarios; diags = List.rev !diags }

let run ?seed () =
  let a = commutation_tables () in
  let b = savings ?seed () in
  let c = optimality ?seed () in
  {
    pairs_checked = a.pairs_checked;
    scenarios_checked = b.scenarios_checked + c.scenarios_checked;
    diags = a.diags @ b.diags @ c.diags;
  }
