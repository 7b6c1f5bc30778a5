open Qgate

let c_checks = Qobs.counter "qlint.checks"
let checks_total = Atomic.make 0

let count_check () =
  Qobs.incr c_checks;
  Atomic.incr checks_total

let checks_run () = Atomic.get checks_total

let structural ~n instrs =
  count_check ();
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  List.iteri
    (fun id (i : Qcircuit.Circuit.instr) ->
      let arity = Gate.arity i.gate in
      let k = List.length i.qubits in
      if k <> arity then
        emit
          (Diagnostic.errorf ~loc:(Diagnostic.Instr id) ~rule:"gate.arity"
             "gate %s expects %d qubits, got %d" (Gate.name i.gate) arity k);
      List.iter
        (fun q ->
          if q < 0 || q >= n then
            emit
              (Diagnostic.errorf ~loc:(Diagnostic.Instr id) ~rule:"qubit.bounds"
                 "qubit index %d out of range for a %d-qubit circuit" q n))
        i.qubits;
      if List.length (List.sort_uniq compare i.qubits) <> k then
        emit
          (Diagnostic.errorf ~loc:(Diagnostic.Instr id) ~rule:"gate.repeated-qubit"
             "gate %s repeats a qubit operand (%s)" (Gate.name i.gate)
             (String.concat "," (List.map string_of_int i.qubits))))
    instrs;
  List.rev !diags

let dag_consistency c =
  count_check ();
  let dag = Qcircuit.Dag.of_circuit c in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let n = Qcircuit.Dag.n_nodes dag in
  Array.iter
    (fun (nd : Qcircuit.Dag.node) ->
      List.iter
        (fun (q, p) ->
          if p < 0 || p >= n then
            emit
              (Diagnostic.errorf ~loc:(Diagnostic.Instr nd.id) ~rule:"wire.consistency"
                 "predecessor id %d on wire %d out of range" p q)
          else begin
            (* a dependency must point backwards in instruction order: node
               ids are source positions, so this is exactly acyclicity *)
            if p >= nd.id then
              emit
                (Diagnostic.errorf ~loc:(Diagnostic.Instr nd.id) ~rule:"dag.acyclic"
                   "dependency on node %d does not precede node %d (cycle)" p nd.id);
            let back = (Qcircuit.Dag.node dag p).succs in
            if not (List.exists (fun (q', s) -> q' = q && s = nd.id) back) then
              emit
                (Diagnostic.errorf ~loc:(Diagnostic.Instr nd.id) ~rule:"wire.consistency"
                   "edge from node %d on wire %d has no successor mirror" p q)
          end)
        nd.preds;
      List.iter
        (fun (q, s) ->
          if s < 0 || s >= n then
            emit
              (Diagnostic.errorf ~loc:(Diagnostic.Instr nd.id) ~rule:"wire.consistency"
                 "successor id %d on wire %d out of range" s q)
          else if
            not
              (List.exists (fun (q', p) -> q' = q && p = nd.id) (Qcircuit.Dag.node dag s).preds)
          then
            emit
              (Diagnostic.errorf ~loc:(Diagnostic.Instr nd.id) ~rule:"wire.consistency"
                 "edge to node %d on wire %d has no predecessor mirror" s q))
        nd.succs)
    (Qcircuit.Dag.nodes dag);
  List.rev !diags

let lowered_2q c =
  count_check ();
  List.concat
    (List.mapi
       (fun id (i : Qcircuit.Circuit.instr) ->
         if Gate.arity i.gate > 2 && not (Gate.is_directive i.gate) then
           [
             Diagnostic.errorf ~loc:(Diagnostic.Instr id) ~rule:"basis.two-qubit"
               "gate %s acts on %d qubits; expected at most 2 after lowering"
               (Gate.name i.gate) (Gate.arity i.gate);
           ]
         else [])
       (Qcircuit.Circuit.instrs c))

let hardware_basis c =
  count_check ();
  List.concat
    (List.mapi
       (fun id (i : Qcircuit.Circuit.instr) ->
         if Gate.in_basis i.gate then []
         else
           [
             Diagnostic.errorf ~loc:(Diagnostic.Instr id) ~rule:"basis.hardware"
               "gate %s is outside the hardware basis {rz, sx, x, cx}"
               (Gate.name i.gate);
           ])
       (Qcircuit.Circuit.instrs c))

let check_map coupling c =
  count_check ();
  let n_phys = Topology.Coupling.n_qubits coupling in
  let n = Qcircuit.Circuit.n_qubits c in
  let head =
    if n > n_phys then
      [
        Diagnostic.errorf ~rule:"route.check-map"
          "circuit has %d qubits but the device only %d" n n_phys;
      ]
    else []
  in
  head
  @ List.concat
      (List.mapi
         (fun id (i : Qcircuit.Circuit.instr) ->
           match i.qubits with
           | [ a; b ]
             when Gate.is_two_qubit i.gate
                  && a >= 0 && a < n_phys && b >= 0 && b < n_phys
                  && not (Topology.Coupling.connected coupling a b) ->
               [
                 Diagnostic.errorf ~loc:(Diagnostic.Instr id) ~rule:"route.check-map"
                   "%s on uncoupled physical pair (%d, %d)" (Gate.name i.gate) a b;
               ]
           | _ -> [])
         (Qcircuit.Circuit.instrs c))

let layout coupling l2p =
  count_check ();
  let n_phys = Topology.Coupling.n_qubits coupling in
  let seen = Hashtbl.create 16 in
  let diags = ref [] in
  Array.iteri
    (fun l p ->
      if p < 0 || p >= n_phys then
        diags :=
          Diagnostic.errorf ~loc:(Diagnostic.Wire l) ~rule:"route.layout"
            "logical qubit %d mapped to physical %d, outside the %d-qubit device" l p
            n_phys
          :: !diags
      else begin
        (match Hashtbl.find_opt seen p with
        | Some l' ->
            diags :=
              Diagnostic.errorf ~loc:(Diagnostic.Wire l) ~rule:"route.layout"
                "physical qubit %d assigned to both logical %d and %d" p l' l
              :: !diags
        | None -> ());
        Hashtbl.replace seen p l
      end)
    l2p;
  List.rev !diags

(* a parameterized gate whose angles make it the identity (up to global
   phase); 2pi-periodic, matching the rotation semantics of the gate set *)
let angle_dead a =
  let r = Float.rem a (2.0 *. Float.pi) in
  let r = if r < 0.0 then r +. (2.0 *. Float.pi) else r in
  Float.abs r <= 1e-9 || Float.abs (r -. (2.0 *. Float.pi)) <= 1e-9

let is_identity_gate (g : Gate.t) =
  match g with
  | RX a | RY a | RZ a | P a | CRX a | CRY a | CRZ a | CP a | RZZ a -> angle_dead a
  | U (t, p, l) -> angle_dead t && angle_dead (p +. l)
  | _ -> false

let is_self_inverse (g : Gate.t) =
  match g with
  | X | Y | Z | H | CX | CY | CZ | CH | SWAP | CCX | CCZ | CSWAP -> true
  | _ -> false

let dead_gates c =
  count_check ();
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* last.(w) = index of the last non-directive instruction touching wire w *)
  let last = Array.make (Qcircuit.Circuit.n_qubits c) (-1) in
  let instrs = Array.of_list (Qcircuit.Circuit.instrs c) in
  Array.iteri
    (fun id (i : Qcircuit.Circuit.instr) ->
      if not (Gate.is_directive i.gate) then begin
        let in_range = List.for_all (fun q -> q >= 0 && q < Array.length last) i.qubits in
        (* adjacent self-inverse pair: the previous instruction on every
           operand wire is the same gate on the same operand list *)
        let paired =
          is_self_inverse i.gate && i.qubits <> [] && in_range
          &&
          let p = last.(List.hd i.qubits) in
          p >= 0
          && instrs.(p).gate = i.gate
          && instrs.(p).qubits = i.qubits
          && List.for_all (fun q -> last.(q) = p) i.qubits
        in
        if is_identity_gate i.gate then
          emit
            (Diagnostic.warning ~loc:(Diagnostic.Instr id) ~rule:"gate.dead"
               (Printf.sprintf "gate %s is the identity (dead gate)" (Gate.name i.gate)))
        else if paired then
          emit
            (Diagnostic.warning ~loc:(Diagnostic.Instr id) ~rule:"gate.dead"
               (Printf.sprintf
                  "gate %s cancels the identical %s at instruction %d (dead pair)"
                  (Gate.name i.gate) (Gate.name i.gate)
                  last.(List.hd i.qubits)));
        if in_range then
          (* both members of a cancelled pair drop out of the adjacency
             tracking, so X X X reports one pair, X X X X reports two *)
          List.iter (fun q -> last.(q) <- (if paired then -1 else id)) i.qubits
      end)
    instrs;
  List.rev !diags

let check_prop coupling (p : Contract.prop) c =
  match (p, coupling) with
  | Lowered_2q, _ -> lowered_2q c
  | Hardware_basis, _ -> hardware_basis c
  | Routed_for, Some cm -> check_map cm c
  | Routed_for, None | (Size_preserving | Semantics_preserved), _ -> []

let check_circuit ?coupling ?(props = []) c =
  structural ~n:(Qcircuit.Circuit.n_qubits c) (Qcircuit.Circuit.instrs c)
  @ dag_consistency c @ dead_gates c
  @ List.concat_map
      (fun p ->
        if p = Contract.Routed_for && coupling = None then
          [
            Diagnostic.warning ~rule:"route.check-map"
              "Routed_for requested but no coupling map given; skipped";
          ]
        else check_prop coupling p c)
      props

let lint_qasm ?path src =
  count_check ();
  match Qcircuit.Qasm_parser.parse_result src with
  | Ok c -> Ok c
  | Error { Qcircuit.Qasm_parser.line; col; msg } ->
      let msg = match path with None -> msg | Some p -> Printf.sprintf "%s: %s" p msg in
      Error
        (Diagnostic.error ~loc:(Diagnostic.Source { line; col }) ~rule:"qasm.parse" msg)

let lint_qasm_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> lint_qasm ~path src
  | exception Sys_error msg -> Error (Diagnostic.error ~rule:"qasm.parse" msg)
