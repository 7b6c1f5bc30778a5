open Qcircuit
open Qgate

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let bell () =
  Circuit.create 2 [ { gate = Gate.H; qubits = [ 0 ] }; { gate = Gate.CX; qubits = [ 0; 1 ] } ]

let ghz n =
  let b = Circuit.Builder.create n in
  Circuit.Builder.add b Gate.H [ 0 ];
  for i = 0 to n - 2 do
    Circuit.Builder.add b Gate.CX [ i; i + 1 ]
  done;
  Circuit.Builder.circuit b

let test_create_validates () =
  let bad_arity () = ignore (Circuit.create 2 [ { gate = Gate.CX; qubits = [ 0 ] } ]) in
  let out_of_range () = ignore (Circuit.create 2 [ { gate = Gate.H; qubits = [ 5 ] } ]) in
  let repeated () = ignore (Circuit.create 2 [ { gate = Gate.CX; qubits = [ 1; 1 ] } ]) in
  Alcotest.check_raises "arity" (Invalid_argument "Circuit: gate cx expects 2 qubits, got 1")
    bad_arity;
  Alcotest.check_raises "range"
    (Invalid_argument "Circuit: qubit index 5 out of range for 2-qubit circuit")
    out_of_range;
  Alcotest.check_raises "repeat" (Invalid_argument "Circuit: repeated qubit in cx 1,1")
    repeated;
  Alcotest.check_raises "concat"
    (Invalid_argument "Circuit.concat: qubit-count mismatch (2 vs 3)") (fun () ->
      ignore (Circuit.concat (bell ()) (Circuit.create 3 [])));
  Alcotest.check_raises "remap"
    (Invalid_argument "Circuit.remap: permutation size 3 does not match 2 qubits")
    (fun () -> ignore (Circuit.remap (bell ()) [| 0; 1; 2 |]))

let test_metrics () =
  let c = ghz 4 in
  checki "size" 4 (Circuit.size c);
  checki "cx count" 3 (Circuit.cx_count c);
  checki "depth" 4 (Circuit.depth c);
  checki "2q count" 3 (Circuit.two_qubit_count c)

let test_depth_parallel () =
  let c =
    Circuit.create 4
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.H; qubits = [ 1 ] };
        { gate = Gate.H; qubits = [ 2 ] };
        { gate = Gate.H; qubits = [ 3 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 2; 3 ] };
      ]
  in
  checki "parallel depth" 2 (Circuit.depth c)

let test_barrier_not_counted () =
  let c =
    Circuit.create 2
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.Barrier 2; qubits = [ 0; 1 ] };
        { gate = Gate.X; qubits = [ 1 ] };
      ]
  in
  checki "size skips barrier" 2 (Circuit.size c);
  checki "depth skips barrier" 1 (Circuit.depth c)

let test_unitary_bell () =
  let u = Circuit.unitary (bell ()) in
  (* Bell circuit maps |00> to (|00> + |11>)/sqrt2 *)
  let v = Mathkit.Mat.apply_vec u [| Mathkit.Cx.one; Mathkit.Cx.zero; Mathkit.Cx.zero; Mathkit.Cx.zero |] in
  let h = 1.0 /. sqrt 2.0 in
  check "bell 00 amp" true (Mathkit.Cx.approx v.(0) (Mathkit.Cx.re h));
  check "bell 11 amp" true (Mathkit.Cx.approx v.(3) (Mathkit.Cx.re h));
  check "bell 01 amp" true (Mathkit.Cx.approx v.(1) Mathkit.Cx.zero)

let test_inverse_property () =
  let rng = Mathkit.Rng.create 4242 in
  for _ = 1 to 20 do
    let n = 3 in
    let b = Circuit.Builder.create n in
    for _ = 1 to 15 do
      match Mathkit.Rng.int rng 4 with
      | 0 -> Circuit.Builder.add b Gate.H [ Mathkit.Rng.int rng n ]
      | 1 -> Circuit.Builder.add b (Gate.RZ (Mathkit.Rng.float rng 6.0)) [ Mathkit.Rng.int rng n ]
      | 2 ->
          let a = Mathkit.Rng.int rng n in
          let bq = (a + 1 + Mathkit.Rng.int rng (n - 1)) mod n in
          Circuit.Builder.add b Gate.CX [ a; bq ]
      | _ -> Circuit.Builder.add b Gate.T [ Mathkit.Rng.int rng n ]
    done;
    let c = Circuit.Builder.circuit b in
    let ci = Circuit.inverse c in
    let u = Circuit.unitary (Circuit.concat c ci) in
    check "c . c^-1 = I" true
      (Mathkit.Mat.equal_up_to_phase u (Mathkit.Mat.identity (1 lsl n)))
  done

let test_remap () =
  let c = bell () in
  let r = Circuit.remap c [| 1; 0 |] in
  (match Circuit.instrs r with
  | [ { gate = Gate.H; qubits = [ 1 ] }; { gate = Gate.CX; qubits = [ 1; 0 ] } ] -> ()
  | _ -> Alcotest.fail "remap wrong");
  check "remap identity roundtrip" true (Circuit.equal c (Circuit.remap r [| 1; 0 |]))

let test_embed_positions () =
  (* CX embedded on qubits (2,0) of a 3-qubit register *)
  let open Mathkit in
  let cx = Unitary.of_gate Gate.CX in
  let u = Circuit.embed ~n:3 cx [ 2; 0 ] in
  (* state |001> (q2=1 control) should map to |101> *)
  let v = Array.make 8 Cx.zero in
  v.(0b001) <- Cx.one;
  let w = Mat.apply_vec u v in
  check "control q2 flips q0" true (Cx.approx w.(0b101) Cx.one)

(* ---------- DAG ---------- *)

let test_dag_roundtrip () =
  let c = ghz 5 in
  let d = Dag.of_circuit c in
  check "roundtrip" true (Circuit.equal c (Dag.to_circuit d))

let test_dag_structure () =
  let c =
    Circuit.create 3
      [
        { gate = Gate.H; qubits = [ 0 ] };
        { gate = Gate.CX; qubits = [ 0; 1 ] };
        { gate = Gate.CX; qubits = [ 1; 2 ] };
        { gate = Gate.X; qubits = [ 0 ] };
      ]
  in
  let d = Dag.of_circuit c in
  checki "n nodes" 4 (Dag.n_nodes d);
  check "h has no preds" true (Dag.pred_ids d 0 = []);
  check "cx01 preds" true (Dag.pred_ids d 1 = [ 0 ]);
  check "cx12 pred is cx01" true (Dag.pred_ids d 2 = [ 1 ]);
  check "x pred is cx01" true (Dag.pred_ids d 3 = [ 1 ]);
  check "succ on wire" true (Dag.succ_on d 1 0 = Some 3);
  check "pred on wire" true (Dag.pred_on d 2 1 = Some 1)

let test_traversal_executes_all () =
  let c = ghz 6 in
  let d = Dag.of_circuit c in
  let tr = Dag.Traversal.create d in
  let steps = ref 0 in
  while not (Dag.Traversal.finished tr) do
    match Dag.Traversal.front tr with
    | [] -> Alcotest.fail "empty front before finish"
    | id :: _ ->
        Dag.Traversal.execute tr id;
        incr steps
  done;
  checki "executed all" (Dag.n_nodes d) !steps

let test_traversal_order_respects_deps () =
  let c = ghz 6 in
  let d = Dag.of_circuit c in
  let tr = Dag.Traversal.create d in
  let seen = Hashtbl.create 16 in
  while not (Dag.Traversal.finished tr) do
    match Dag.Traversal.front tr with
    | [] -> Alcotest.fail "stuck"
    | id :: _ ->
        List.iter
          (fun p -> check "pred executed first" true (Hashtbl.mem seen p))
          (Dag.pred_ids d id);
        Hashtbl.add seen id ();
        Dag.Traversal.execute tr id
  done

let test_lookahead () =
  let c = ghz 6 in
  let d = Dag.of_circuit c in
  let tr = Dag.Traversal.create d in
  (* front is [h]; lookahead should surface the upcoming cx gates in order *)
  let ahead = Dag.Traversal.lookahead tr 3 in
  checki "lookahead count" 3 (List.length ahead);
  check "lookahead are 2q" true
    (List.for_all (fun id -> Gate.is_two_qubit (Dag.node d id).gate) ahead)

(* ---------- the two walkers' execute contract ----------

   [Dag.Traversal] and [Streamdag] share one contract: executing a front
   node removes it in place and appends the newly ready nodes in
   ascending id order (promotions, then for [Streamdag] the gates its
   refill admits ready); executing anything else raises
   [Invalid_argument] and leaves the front unchanged.  Both are checked
   against a list model of the filter-then-append rule, with readiness
   computed from the instruction list alone. *)

type walker = { front : unit -> int list; execute : int -> unit; admitted : unit -> int }

let dag_walker c =
  let tr = Dag.Traversal.create (Dag.of_circuit c) in
  {
    front = (fun () -> Dag.Traversal.front tr);
    execute = Dag.Traversal.execute tr;
    admitted = (fun () -> Circuit.size c);
  }

let stream_walker ~window c =
  let sd = Streamdag.create ~window (Source.of_circuit c) in
  {
    front = (fun () -> Streamdag.front sd);
    execute = Streamdag.execute sd;
    admitted = (fun () -> Streamdag.admitted_count sd);
  }

let walkers =
  [
    ("Dag.Traversal", dag_walker);
    ("Streamdag w=2", stream_walker ~window:2);
    ("Streamdag w=5", stream_walker ~window:5);
  ]

(* raises Invalid_argument and leaves the front as it was *)
let rejects w id =
  let before = w.front () in
  (match w.execute id with
  | () -> false
  | exception Invalid_argument _ -> true)
  && w.front () = before

let test_execute_contract () =
  let c = ghz 4 in
  List.iter
    (fun (name, make) ->
      let w = make c in
      check (name ^ ": front is the H") true (w.front () = [ 0 ]);
      check (name ^ ": non-front node rejected") true (rejects w 2);
      w.execute 0;
      check (name ^ ": executed node rejected") true (rejects w 0);
      check (name ^ ": unknown node rejected") true (rejects w 99);
      check (name ^ ": promotion appended") true (w.front () = [ 1 ]))
    walkers

(* instruction [j] is ready once every earlier instruction sharing a
   wire with it has executed *)
let ready instrs executed j =
  (not executed.(j))
  && List.for_all
       (fun i ->
         i >= j
         || executed.(i)
         || not
              (List.exists
                 (fun q -> List.mem q (instrs.(i) : Circuit.instr).qubits)
                 instrs.(j).Circuit.qubits))
       (List.init (Array.length instrs) Fun.id)

let gen_walk =
  QCheck.Gen.(
    let gate =
      oneof
        [
          map (fun q -> (Gate.H, [ q ])) (int_range 0 3);
          map2
            (fun a d -> (Gate.CX, [ a; (a + 1 + d) mod 4 ]))
            (int_range 0 3) (int_range 0 2);
        ]
    in
    triple (list_size (int_range 1 30) gate) (int_range 0 (List.length walkers - 1))
      (list_size (return 64) nat))

let prop_front_order (gates, wi, picks) =
  let c =
    Circuit.create 4 (List.map (fun (gate, qubits) -> { Circuit.gate; qubits }) gates)
  in
  let instrs = Array.of_list (Circuit.instrs c) in
  let executed = Array.make (Array.length instrs) false in
  let name, make = List.nth walkers wi in
  let w = make c in
  let picks = ref picks in
  let next () =
    match !picks with
    | p :: rest ->
        picks := rest;
        p
    | [] -> 0
  in
  let ok = ref true in
  while !ok && w.front () <> [] do
    let front = w.front () in
    let id = List.nth front (next () mod List.length front) in
    (* a node that is not on the front: executed, waiting, or unknown *)
    let outside = next () mod (Array.length instrs + 1) in
    if not (List.mem outside front) then ok := rejects w outside;
    let was_ready j = List.mem j front in
    w.execute id;
    executed.(id) <- true;
    let appended =
      List.filter
        (fun j -> j < w.admitted () && (not (was_ready j)) && ready instrs executed j)
        (List.init (Array.length instrs) Fun.id)
    in
    let model = List.filter (fun x -> x <> id) front @ appended in
    if w.front () <> model then
      QCheck.Test.fail_reportf "%s: executing %d gave front [%s], model [%s]" name id
        (String.concat ";" (List.map string_of_int (w.front ())))
        (String.concat ";" (List.map string_of_int model))
  done;
  !ok && Array.for_all Fun.id executed

let walker_props =
  [
    QCheck.Test.make ~name:"front order = filter-then-append model" ~count:300
      (QCheck.make gen_walk) prop_front_order;
  ]

(* ---------- QASM ---------- *)

let test_qasm_contains () =
  let s = Qasm.to_string (bell ()) in
  check "header" true (String.length s > 0 && String.sub s 0 12 = "OPENQASM 2.0");
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check "has h" true (has "h q[0];");
  check "has cx" true (has "cx q[0],q[1];")

let () =
  Alcotest.run "qcircuit"
    [
      ( "circuit",
        [
          Alcotest.test_case "validation" `Quick test_create_validates;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "parallel depth" `Quick test_depth_parallel;
          Alcotest.test_case "barrier skipped" `Quick test_barrier_not_counted;
          Alcotest.test_case "bell unitary" `Quick test_unitary_bell;
          Alcotest.test_case "inverse property" `Quick test_inverse_property;
          Alcotest.test_case "remap" `Quick test_remap;
          Alcotest.test_case "embed positions" `Quick test_embed_positions;
        ] );
      ( "dag",
        [
          Alcotest.test_case "roundtrip" `Quick test_dag_roundtrip;
          Alcotest.test_case "structure" `Quick test_dag_structure;
          Alcotest.test_case "traversal completes" `Quick test_traversal_executes_all;
          Alcotest.test_case "traversal respects deps" `Quick test_traversal_order_respects_deps;
          Alcotest.test_case "lookahead" `Quick test_lookahead;
        ] );
      ( "walker",
        Alcotest.test_case "execute contract" `Quick test_execute_contract
        :: List.map QCheck_alcotest.to_alcotest walker_props );
      ("qasm", [ Alcotest.test_case "emission" `Quick test_qasm_contains ]);
    ]
