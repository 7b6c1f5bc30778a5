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

(* [Circuit.create]'s instruction check before it stopped sorting, kept as
   the reference: the same three checks in the same order, the repeated
   qubit found by [List.sort_uniq] *)
let reference_check n (i : Circuit.instr) =
  let k = List.length i.qubits in
  if k <> Gate.arity i.gate then
    Error
      (Printf.sprintf "Circuit: gate %s expects %d qubits, got %d" (Gate.name i.gate)
         (Gate.arity i.gate) k)
  else
    match List.find_opt (fun q -> q < 0 || q >= n) i.qubits with
    | Some q ->
        Error (Printf.sprintf "Circuit: qubit index %d out of range for %d-qubit circuit" q n)
    | None ->
        if List.length (List.sort_uniq compare i.qubits) <> k then
          Error
            (Printf.sprintf "Circuit: repeated qubit in %s %s" (Gate.name i.gate)
               (String.concat "," (List.map string_of_int i.qubits)))
        else Ok ()

(* a gate of arity 1-3 or an MCX of width 2-8, on an operand list that is
   mostly of the right length, over qubits drawn from just past both ends
   of a small range so that repeats and out-of-range indices are common *)
let gen_instr =
  QCheck.Gen.(
    let* gate =
      oneof
        [
          oneofl [ Gate.H; Gate.RZ 0.5; Gate.Measure; Gate.CX; Gate.SWAP; Gate.CP 0.1 ];
          oneofl [ Gate.CCX; Gate.CCZ; Gate.CSWAP ];
          map (fun k -> Gate.MCX k) (int_range 1 7);
        ]
    in
    let* n = int_range 1 10 in
    let* d = frequency [ (8, return 0); (1, return (-1)); (1, return 1) ] in
    let len = max 0 (Gate.arity gate + d) in
    let+ qubits = list_size (return len) (int_range (-1) n) in
    (n, { Circuit.gate; qubits }))

let prop_check_matches_reference (n, instr) =
  let got =
    match Circuit.create n [ instr ] with
    | _ -> Ok ()
    | exception Invalid_argument msg -> Error msg
  in
  got = reference_check n instr

let check_props =
  [
    QCheck.Test.make ~name:"instruction check = sort_uniq reference" ~count:500 ~long_factor:20
      (QCheck.make gen_instr) prop_check_matches_reference;
  ]

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
  let preds i = List.map snd (Dag.node d i).preds in
  check "h has no preds" true (preds 0 = []);
  check "cx01 preds" true (preds 1 = [ 0 ]);
  check "cx12 pred is cx01" true (preds 2 = [ 1 ]);
  check "x pred is cx01" true (preds 3 = [ 1 ]);
  check "succ on wire" true (List.assoc_opt 0 (Dag.node d 1).succs = Some 3);
  check "pred on wire" true (List.assoc_opt 1 (Dag.node d 2).preds = Some 1)

(* ---------- the walker's execute contract ----------

   [Streamdag] is the one DAG walker.  Executing a front node removes it
   in place and appends the newly ready nodes in ascending id order
   (promotions, then the gates its refill admits ready); executing
   anything else raises [Invalid_argument] and leaves the front
   unchanged.  Both tests check this against a list model of the
   filter-then-append rule, with readiness computed from the instruction
   list alone, at two bounded windows, at the unbounded one, and on walks
   of a shared [Plan], the walk batch routing and the layout search use.
   The property also checks every lookahead against a breadth-first
   model over the same list. *)

let windows = [ 2; 5; max_int ]
let walk ~window c = Streamdag.create ~window (Source.of_circuit c)
let ids = List.map Streamdag.id

let walks =
  List.map (fun w -> (Printf.sprintf "window %d" w, walk ~window:w)) windows
  @ [ ("plan", fun c -> Streamdag.of_plan (Streamdag.Plan.of_circuit c)) ]

(* raises Invalid_argument and leaves the front as it was *)
let rejects sd nd =
  let before = ids (Streamdag.front sd) in
  (match Streamdag.execute sd nd with
  | () -> false
  | exception Invalid_argument _ -> true)
  && ids (Streamdag.front sd) = before

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

(* the lookahead model: breadth first from the front's successors, where
   [i]'s successors are the next admitted instruction on each of its
   wires, ascending; up to [k] unexecuted two-qubit gates *)
let model_lookahead instrs executed ~admitted front k =
  let succs i =
    List.sort_uniq compare
      (List.filter_map
         (fun q ->
           let rec next j =
             if j >= admitted then None
             else if List.mem q (instrs.(j) : Circuit.instr).qubits then Some j
             else next (j + 1)
           in
           next (i + 1))
         (instrs.(i) : Circuit.instr).qubits)
  in
  let seen = Array.make (Array.length instrs) false in
  let queue = Queue.create () in
  List.iter (fun i -> List.iter (fun j -> Queue.add j queue) (succs i)) front;
  let out = ref [] and count = ref 0 in
  while !count < k && not (Queue.is_empty queue) do
    let d = Queue.pop queue in
    if not seen.(d) then begin
      seen.(d) <- true;
      if (not executed.(d)) && Gate.is_two_qubit (instrs.(d) : Circuit.instr).gate then begin
        out := d :: !out;
        incr count
      end;
      List.iter (fun j -> Queue.add j queue) (succs d)
    end
  done;
  List.rev !out

let show l = String.concat ";" (List.map string_of_int l)

(* Walk [sd] over [c] to the end, executing the front node [picks]
   selects and trying to execute a known node off the front, and compare
   every front and every lookahead with the models.  Handles come from
   the front and the lookahead, so the off-front nodes tried are executed
   ones and waiting two-qubit gates.  Returns whether every rejection held
   and every gate executed, and the (front, lookahead) ids of every step. *)
let model_walk ~name c sd picks =
  let instrs = Array.of_list (Circuit.instrs c) in
  let n = Array.length instrs in
  let executed = Array.make n false in
  let handles = Array.make n None in
  let note = List.iter (fun nd -> handles.(Streamdag.id nd) <- Some nd) in
  let picks = ref picks in
  let next () =
    match !picks with
    | p :: rest ->
        picks := rest;
        p
    | [] -> 0
  in
  let ok = ref true and steps = ref [] in
  while !ok && Streamdag.front sd <> [] do
    let front = Streamdag.front sd in
    let ahead = Streamdag.lookahead sd n in
    let model_ahead =
      model_lookahead instrs executed ~admitted:(Streamdag.admitted_count sd) (ids front) n
    in
    let first3 = List.filteri (fun i _ -> i < 3) model_ahead in
    if ids ahead <> model_ahead || ids (Streamdag.lookahead sd 3) <> first3 then
      QCheck.Test.fail_reportf "%s: front [%s] has lookahead [%s], model [%s]" name
        (show (ids front)) (show (ids ahead)) (show model_ahead);
    steps := (ids front, ids ahead) :: !steps;
    note front;
    note ahead;
    let nd = List.nth front (next () mod List.length front) in
    let id = Streamdag.id nd in
    let was_ready j = List.mem j (ids front) in
    (match handles.(next () mod n) with
    | Some off when not (was_ready (Streamdag.id off)) -> ok := rejects sd off
    | _ -> ());
    Streamdag.execute sd nd;
    executed.(id) <- true;
    let appended =
      List.filter
        (fun j ->
          j < Streamdag.admitted_count sd && (not (was_ready j)) && ready instrs executed j)
        (List.init n Fun.id)
    in
    let model = List.filter (fun x -> x <> id) (ids front) @ appended in
    if ids (Streamdag.front sd) <> model then
      QCheck.Test.fail_reportf "%s: executing %d gave front [%s], model [%s]" name id
        (show (ids (Streamdag.front sd)))
        (show model)
  done;
  (!ok && Streamdag.finished sd && Array.for_all Fun.id executed, List.rev !steps)

let test_execute_contract () =
  List.iter
    (fun (name, walk) ->
      let name = name ^ ": " in
      let sd = walk (ghz 4) in
      check (name ^ "front is the H") true (ids (Streamdag.front sd) = [ 0 ]);
      let h = List.hd (Streamdag.front sd) in
      let cx01 = List.hd (Streamdag.lookahead sd 1) in
      check (name ^ "waiting node rejected") true (rejects sd cx01);
      Streamdag.execute sd h;
      check (name ^ "executed node rejected") true (rejects sd h);
      check (name ^ "promotion appended") true (ids (Streamdag.front sd) = [ 1 ]);
      (* the lookahead surfaces the upcoming CXs in order, clipped to the
         admitted gates *)
      let sd = walk (ghz 6) in
      let ahead = Streamdag.lookahead sd 3 in
      check (name ^ "lookahead") true
        (ids ahead = List.filter (fun i -> i < Streamdag.admitted_count sd) [ 1; 2; 3 ]);
      check (name ^ "lookahead are 2q") true
        (List.for_all (fun nd -> Gate.is_two_qubit (Streamdag.gate sd nd)) ahead);
      check (name ^ "executes all, in dependency order") true
        (fst (model_walk ~name (ghz 6) (walk (ghz 6)) [ 0; 3; 0; 1; 0; 4 ]));
      let empty = walk (Circuit.empty 2) in
      check (name ^ "empty DAG finished") true
        (Streamdag.finished empty && Streamdag.front empty = []))
    walks

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
    triple (list_size (int_range 1 30) gate) (oneofl windows) (list_size (return 64) nat))

(* The bounded window's walk against the models; then one shared plan,
   walked twice in a row by one walk, from two domains at once, and the
   unbounded window's walk: all against the models and step for step
   against each other. *)
let prop_front_order (gates, window, picks) =
  let c = Circuit.create 4 (List.map (fun (gate, qubits) -> { Circuit.gate; qubits }) gates) in
  let run name sd = model_walk ~name c sd picks in
  let bounded, _ = run (Printf.sprintf "window %d" window) (walk ~window c) in
  let plan = Streamdag.Plan.of_circuit c in
  let sd = Streamdag.of_plan plan in
  let first = run "plan" sd in
  Streamdag.reset sd plan;
  let again = run "plan, walked again" sd in
  let other = Domain.spawn (fun () -> run "plan, on a second domain" (Streamdag.of_plan plan)) in
  let par1 = run "plan, beside a second domain" (Streamdag.of_plan plan) in
  let par2 = Domain.join other in
  let unbounded = run "window max_int" (walk ~window:max_int c) in
  bounded && List.for_all (fun r -> r = unbounded) [ first; again; par1; par2 ] && fst unbounded

let walker_props =
  [
    QCheck.Test.make ~name:"front order = filter-then-append model" ~count:300 ~long_factor:10
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
        ]
        @ List.map QCheck_alcotest.to_alcotest check_props );
      ( "dag",
        [
          Alcotest.test_case "roundtrip" `Quick test_dag_roundtrip;
          Alcotest.test_case "structure" `Quick test_dag_structure;
        ] );
      ( "walker",
        Alcotest.test_case "execute contract" `Quick test_execute_contract
        :: List.map QCheck_alcotest.to_alcotest walker_props );
      ("qasm", [ Alcotest.test_case "emission" `Quick test_qasm_contains ]);
    ]
