open Contract

let validate_pipeline ~router =
  let goal =
    match router with
    | Qroute.Pipeline.Full_connectivity -> [ Hardware_basis ]
    | _ -> [ Hardware_basis; Routed_for ]
  in
  Contract.validate ~initial:[] ~goal (Qroute.Pipeline.stage_names ~router)

let semantics_limit = 8

(* a relational property compares the stage's input and output; the others
   are one rule on the output ([Rules.check_prop]) *)
let verify_prop ?coupling ~check_semantics ~stage ~before after p =
  let changed_unitary detail =
    [
      Diagnostic.errorf ~rule:"contract.ensures"
        "stage %s changed the circuit unitary (Semantics_preserved violated)%s" stage detail;
    ]
  in
  let diags =
    match p with
    | Size_preserving ->
        (* the CX-basis cost is what Size_preserving bounds: the gate count
           may grow (zsx re-emission expands 1q runs) *)
        let cost c = Qpasses.Blocks.ops_cx_cost (Qcircuit.Circuit.instrs c) in
        let cb = cost before and ca = cost after in
        if ca > cb then
          [
            Diagnostic.errorf ~rule:"contract.ensures"
              "stage %s raised the CX-basis cost from %d to %d (Size_preserving violated)"
              stage cb ca;
          ]
        else []
    | Semantics_preserved
      when check_semantics
           && Qcircuit.Circuit.n_qubits before = Qcircuit.Circuit.n_qubits after -> begin
        (* symbolic certification first: width-independent, and the
           three-valued verdict never claims a false positive.  Only an
           Unknown (budget exhausted / unsupported gate) falls back to
           dense unitary comparison, and only where that is tractable. *)
        match Qverify.verify_pair before after with
        | Qverify.Equivalent _ -> []
        | Qverify.Not_equivalent { reason; _ } -> changed_unitary (": " ^ reason)
        | Qverify.Unknown _ ->
            if
              Qcircuit.Circuit.n_qubits before <= semantics_limit
              && not (Qsim.Equiv.unitary_equal before after)
            then changed_unitary ""
            else []
      end
    | _ -> Rules.check_prop coupling p after
  in
  List.map (fun (d : Diagnostic.t) -> { d with loc = Some (Diagnostic.Stage stage) }) diags

let run_stages ?coupling ?(check_semantics = false) ?(initial = [ Lowered_2q ]) stages
    circuit =
  let verify ~stage ~before after state =
    List.concat_map (verify_prop ?coupling ~check_semantics ~stage ~before after) state
  in
  (* the input itself must satisfy the initial property set *)
  let input = verify ~stage:"<input>" ~before:circuit circuit initial in
  let (final, _), diags =
    List.fold_left_map
      (fun (c, state) (name, f) ->
        let state', contract = Contract.step name state in
        let c' = f c in
        ((c', state'), contract @ verify ~stage:name ~before:c c' state'))
      (circuit, initial) stages
  in
  (final, input @ List.concat diags)

let check_result ~coupling (r : Qroute.Pipeline.result) =
  let c = r.Qroute.Pipeline.circuit in
  let base = Rules.check_circuit c ~props:[ Lowered_2q; Hardware_basis ] in
  let routed =
    match (r.Qroute.Pipeline.initial_layout, r.Qroute.Pipeline.final_layout) with
    | None, None -> []
    | il, fl ->
        let layout_checks l =
          match l with Some a -> Rules.layout coupling a | None -> []
        in
        layout_checks il @ layout_checks fl @ Rules.check_map coupling c
  in
  base @ routed

let verify_result ~original (r : Qroute.Pipeline.result) =
  match
    Qverify.verify_routed ~original ~routed:r.Qroute.Pipeline.circuit
      ?initial_layout:r.Qroute.Pipeline.initial_layout
      ?final_layout:r.Qroute.Pipeline.final_layout ()
  with
  | Qverify.Equivalent _ -> []
  | Qverify.Not_equivalent { reason; location } ->
      let loc =
        match location with
        | Some l -> Diagnostic.Instr l.Qverify.index
        | None -> Diagnostic.Stage "route"
      in
      [
        Diagnostic.errorf ~loc ~rule:"route.semantics"
          "routed circuit is not equivalent to the input under its layouts: %s" reason;
      ]
  | Qverify.Unknown { reason } ->
      [
        Diagnostic.warning ~loc:(Diagnostic.Stage "route") ~rule:"route.semantics"
          (Printf.sprintf "equivalence could not be certified: %s" reason);
      ]

let catch_stuck f =
  match f () with
  | v -> Ok v
  | exception (Qroute.Engine.Routing_stuck _ as e) ->
      Error
        (Diagnostic.error ~loc:(Diagnostic.Stage "route") ~rule:"route.stuck"
           (Printexc.to_string e))

let check_width ~router coupling n_qubits =
  let n_phys = Topology.Coupling.n_qubits coupling in
  match router with
  | Qroute.Pipeline.Full_connectivity -> Ok ()
  | _ when n_qubits <= n_phys -> Ok ()
  | _ ->
      Error
        (Diagnostic.errorf ~loc:(Diagnostic.Stage "route") ~rule:"route.too-wide"
           "the circuit has %d qubits but the device has %d" n_qubits n_phys)

let transpile ?params ?calibration ?trials ?workers ~router coupling circuit =
  match Diagnostic.errors (validate_pipeline ~router) with
  | _ :: _ as errs -> Error errs
  | [] -> (
      match check_width ~router coupling (Qcircuit.Circuit.n_qubits circuit) with
      | Error d -> Error [ d ]
      | Ok () -> begin
          match
            catch_stuck (fun () ->
                Qroute.Pipeline.transpile ?params ?calibration ?trials ?workers ~router
                  coupling circuit)
          with
          | Error d -> Error [ d ]
          | Ok r -> begin
              match Diagnostic.errors (check_result ~coupling r) with
              | [] -> Ok r
              | errs -> Error errs
            end
        end)
