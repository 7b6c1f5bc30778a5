(* The static-analysis layer: rules trip exactly on their intended
   violations, the contract validator accepts every shipped pipeline and
   rejects illegal orderings, checked mode catches contract-breaking
   stages at runtime, and the commutation/savings audit holds against
   ground truth. *)

open Qgate
open Qlint

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let instr gate qubits = { Qcircuit.Circuit.gate; qubits }
let rules_of diags = List.map (fun (d : Diagnostic.t) -> d.rule) diags

let trips_exactly what expected diags =
  let errs = Diagnostic.errors diags in
  check (what ^ " trips") true (errs <> []);
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check string) (what ^ " rule") expected d.rule)
    errs

(* random circuit over a gate set that exercises lowering (ccx, cp) *)
let random_circuit rng n len =
  let b = Qcircuit.Circuit.Builder.create n in
  for _ = 1 to len do
    let q () = Mathkit.Rng.int rng n in
    let distinct2 () =
      let a = q () in
      let d = 1 + Mathkit.Rng.int rng (n - 1) in
      (a, (a + d) mod n)
    in
    match Mathkit.Rng.int rng 6 with
    | 0 -> Qcircuit.Circuit.Builder.add b Gate.H [ q () ]
    | 1 -> Qcircuit.Circuit.Builder.add b (Gate.RZ (Mathkit.Rng.float rng 6.0)) [ q () ]
    | 2 | 3 ->
        let a, c = distinct2 () in
        Qcircuit.Circuit.Builder.add b Gate.CX [ a; c ]
    | 4 ->
        let a, c = distinct2 () in
        Qcircuit.Circuit.Builder.add b (Gate.CP (Mathkit.Rng.float rng 3.0)) [ a; c ]
    | _ ->
        if n >= 3 then begin
          let a = q () in
          let c = (a + 1) mod n in
          let d = (a + 2) mod n in
          Qcircuit.Circuit.Builder.add b Gate.CCX [ a; c; d ]
        end
        else Qcircuit.Circuit.Builder.add b Gate.T [ q () ]
  done;
  Qcircuit.Circuit.Builder.circuit b

(* ---------- every router x topology result passes the full rule set ---------- *)

let routers = ("none", Qroute.Pipeline.Full_connectivity) :: Qroute.Pipeline.routers

let topologies =
  [
    ("linear6", Topology.Devices.linear 6);
    ("ring6", Topology.Devices.ring 6);
    ("grid2x3", Topology.Devices.grid 2 3);
    ("heavy_hex3x3", Topology.Devices.heavy_hex 3 3);
  ]

let test_transpile_passes_lint () =
  let rng = Mathkit.Rng.create 404 in
  List.iter
    (fun (tname, coupling) ->
      let circuit = random_circuit rng 5 14 in
      List.iter
        (fun (rname, router) ->
          let cal = Topology.Calibration.generate coupling in
          match Checked.transpile ~calibration:cal ~router coupling circuit with
          | Ok r ->
              (* Checked.transpile already ran check_result; re-run it
                 explicitly so a regression there cannot hide *)
              let diags = Checked.check_result ~coupling r in
              check
                (Printf.sprintf "%s on %s lints clean" rname tname)
                true
                (not (Diagnostic.has_errors diags))
          | Error ds ->
              Alcotest.failf "%s on %s: %s" rname tname
                (String.concat "; "
                   (List.map (fun (d : Diagnostic.t) -> d.message) ds)))
        routers)
    topologies

(* ---------- known-bad fixtures trip exactly their intended rule ---------- *)

let test_bad_fixtures () =
  let linear4 = Topology.Devices.linear 4 in
  (* uncoupled CX *)
  let c = Qcircuit.Circuit.create 4 [ instr Gate.CX [ 0; 3 ] ] in
  trips_exactly "uncoupled cx" "route.check-map" (Rules.check_map linear4 c);
  (* circuit larger than the device *)
  let big = Qcircuit.Circuit.create 6 [ instr Gate.CX [ 4; 5 ] ] in
  trips_exactly "oversized circuit" "route.check-map" (Rules.check_map linear4 big);
  (* non-hardware gate *)
  let c = Qcircuit.Circuit.create 2 [ instr Gate.H [ 0 ]; instr Gate.CX [ 0; 1 ] ] in
  trips_exactly "h gate" "basis.hardware" (Rules.hardware_basis c);
  (* >2q gate against the lowered contract *)
  let c3 = Qcircuit.Circuit.create 3 [ instr Gate.CCX [ 0; 1; 2 ] ] in
  trips_exactly "ccx" "basis.two-qubit" (Rules.lowered_2q c3);
  (* raw-instruction structural violations (cannot exist as Circuit.t) *)
  trips_exactly "out-of-range" "qubit.bounds"
    (Rules.structural ~n:2 [ instr Gate.X [ 5 ] ]);
  trips_exactly "arity" "gate.arity" (Rules.structural ~n:2 [ instr Gate.CX [ 0 ] ]);
  trips_exactly "repeated" "gate.repeated-qubit"
    (Rules.structural ~n:2 [ instr Gate.CX [ 1; 1 ] ]);
  (* bad layouts *)
  trips_exactly "duplicate layout" "route.layout" (Rules.layout linear4 [| 0; 0 |]);
  trips_exactly "layout out of range" "route.layout" (Rules.layout linear4 [| 0; 9 |]);
  check "good layout" true (Rules.layout linear4 [| 2; 0; 1 |] = []);
  (* a healthy circuit is clean end to end *)
  let good =
    Qcircuit.Circuit.create 2 [ instr Gate.X [ 0 ]; instr Gate.CX [ 0; 1 ] ]
  in
  check "clean circuit" true
    (Rules.check_circuit good ~coupling:linear4
       ~props:[ Contract.Lowered_2q; Contract.Hardware_basis; Contract.Routed_for ]
    = []);
  check "dag consistent" true (Rules.dag_consistency good = [])

let test_lint_qasm () =
  (match Rules.lint_qasm "qreg q[2];\nfoo q[0];\n" with
  | Ok _ -> Alcotest.fail "should not parse"
  | Error d ->
      Alcotest.(check string) "qasm rule" "qasm.parse" d.rule;
      (match d.loc with
      | Some (Diagnostic.Source { line; col }) ->
          checki "line" 2 line;
          checki "col" 1 col
      | _ -> Alcotest.fail "expected source location"));
  match Rules.lint_qasm "qreg q[2];\nh q[0];\ncx q[0],q[1];\n" with
  | Ok c -> checki "parsed ops" 2 (Qcircuit.Circuit.size c)
  | Error d -> Alcotest.failf "unexpected: %s" d.message

(* ---------- dead-gate rule ---------- *)

let fixture file =
  let local = Filename.concat "fixtures" file in
  if Sys.file_exists local then local else Filename.concat "test/fixtures" file

(* the fixture trips exactly gate.dead, three times: rz(0.0) (identity),
   the adjacent cx;cx pair, u(0,0,0) (identity).  h;t;h at the tail is NOT
   dead: t intervenes on the shared wire.  The rule only ever warns, so
   `nassc_cli check` exits 0 on a circuit that trips nothing else. *)
let test_dead_gates () =
  match Rules.lint_qasm_file (fixture "dead_gate.qasm") with
  | Error d -> Alcotest.failf "fixture should parse: %s" d.message
  | Ok c ->
      let diags = Rules.dead_gates c in
      checki "dead gates found" 3 (List.length diags);
      List.iter
        (fun (d : Diagnostic.t) ->
          Alcotest.(check string) "rule" "gate.dead" d.rule;
          check "warning severity" true (d.severity = Diagnostic.Warning))
        diags;
      let insts =
        List.map
          (fun (d : Diagnostic.t) ->
            match d.loc with Some (Diagnostic.Instr i) -> i | _ -> -1)
          diags
      in
      check "locations" true (List.sort compare insts = [ 1; 3; 4 ]);
      (* warnings alone never fail a check run: exit-code semantics of
         `nassc_cli check` hinge on Diagnostic.has_errors *)
      check "warnings are not errors" true (not (Diagnostic.has_errors diags));
      check "full rule set stays warning-only" true
        (not (Diagnostic.has_errors (Rules.check_circuit c)));
      (* --jsonl schema, pinned: one golden line byte-for-byte *)
      Alcotest.(check string) "jsonl golden line"
        "{\"kind\":\"diagnostic\",\"severity\":\"warning\",\"rule\":\"gate.dead\",\
         \"message\":\"gate rz is the identity (dead gate)\",\"instr\":1}"
        (Diagnostic.to_json (List.hd diags));
      (* counting semantics: X X X is one pair, X X X X is two *)
      let xs k =
        Qcircuit.Circuit.create 1 (List.init k (fun _ -> instr Gate.X [ 0 ]))
      in
      checki "xxx one pair" 1 (List.length (Rules.dead_gates (xs 3)));
      checki "xxxx two pairs" 2 (List.length (Rules.dead_gates (xs 4)))

(* ---------- static contract validation ---------- *)

let test_validator_accepts_canonical () =
  List.iter
    (fun (rname, router) ->
      check (rname ^ " pipeline legal") true (Checked.validate_pipeline ~router = []))
    routers

let test_validator_rejects () =
  let has rule diags = List.mem rule (rules_of diags) in
  (* routing after hardware-basis emission: the Figure 5 ordering violation *)
  let d = Contract.validate [ "lower_to_2q"; "basis"; "route" ] in
  check "emission-then-route rejected" true (has "contract.conflict" d);
  (* 2q-block passes before lowering *)
  let d = Contract.validate [ "cancellation"; "lower_to_2q" ] in
  check "cancellation-first rejected" true (has "contract.requires" d);
  let d = Contract.validate [ "unitary_synthesis" ] in
  check "synthesis unlowered rejected" true (has "contract.requires" d);
  (* unknown pass name *)
  let d = Contract.validate [ "lower_to_2q"; "nonsense" ] in
  check "unknown pass rejected" true (has "contract.unknown-pass" d);
  (* pipeline that never reaches its goal *)
  let d = Contract.validate ~goal:[ Contract.Hardware_basis ] [ "lower_to_2q" ] in
  check "missed goal rejected" true (has "contract.goal" d);
  (* the same legal sequence stays clean *)
  check "legal sequence" true
    (Contract.validate ~goal:[ Contract.Hardware_basis ]
       [ "lower_to_2q"; "peephole"; "cancellation"; "route"; "basis" ]
    = [])

let test_guarded_transpile_rejects_statically () =
  (* the guarded transpile of a broken ordering must refuse before running *)
  let d = Contract.validate (Qroute.Pipeline.stage_names ~router:Qroute.Pipeline.Sabre_router) in
  check "canonical names validate" true (d = [])

(* ---------- checked (dynamic) mode ---------- *)

let test_checked_clean_pipeline () =
  let rng = Mathkit.Rng.create 99 in
  let c = Qroute.Pipeline.lower_to_2q (random_circuit rng 4 12) in
  let stages = Qroute.Pipeline.pre_stages @ Qroute.Pipeline.post_stages in
  let final, diags = Checked.run_stages ~check_semantics:true stages c in
  check "no diagnostics" true (not (Diagnostic.has_errors diags));
  check "ends in hardware basis" true (Rules.hardware_basis final = [])

let test_checked_catches_broken_stage () =
  let c =
    Qcircuit.Circuit.create 3 [ instr Gate.X [ 0 ]; instr Gate.CX [ 0; 1 ] ]
  in
  (* a "peephole" that smuggles in a 3-qubit gate breaks Lowered_2q *)
  let evil_3q cir =
    Qcircuit.Circuit.concat cir (Qcircuit.Circuit.create 3 [ instr Gate.CCX [ 0; 1; 2 ] ])
  in
  let _, diags = Checked.run_stages [ ("peephole", evil_3q) ] c in
  check "3q violation caught" true (List.mem "basis.two-qubit" (rules_of diags));
  (* a "cancellation" that adds a CX breaks Size_preserving (and, under
     check_semantics, Semantics_preserved) *)
  let evil_cx cir =
    Qcircuit.Circuit.concat cir (Qcircuit.Circuit.create 3 [ instr Gate.CX [ 1; 2 ] ])
  in
  let _, diags = Checked.run_stages ~check_semantics:true [ ("cancellation", evil_cx) ] c in
  let errs = rules_of (Diagnostic.errors diags) in
  check "cost increase caught" true (List.mem "contract.ensures" errs);
  (* ordering faults surface in dynamic mode through the same contract
     step as the static validator: exactly its diagnostics, located at the
     stage, and the stage still runs *)
  let unlowered = Qcircuit.Circuit.create 3 [ instr Gate.CCX [ 0; 1; 2 ] ] in
  List.iter
    (fun (rule, initial, name, input) ->
      let ran = ref false in
      let _, diags =
        Checked.run_stages ~initial
          [
            ( name,
              fun x ->
                ran := true;
                x );
          ]
          input
      in
      check (rule ^ " caught") true (rules_of diags = [ rule ]);
      check (rule ^ " as the static validator reports it") true
        (diags = Contract.validate ~initial [ name ]);
      check (rule ^ ": stage still ran") true !ran)
    [
      ("contract.requires", [], "cancellation", unlowered);
      ("contract.conflict", [ Contract.Lowered_2q; Contract.Hardware_basis ], "route", c);
      ("contract.unknown-pass", [ Contract.Lowered_2q ], "nonsense", c);
    ]

(* ---------- typed routing-stuck error ---------- *)

let test_routing_stuck () =
  let edgeless = Topology.Coupling.create 2 [] in
  let c = Qcircuit.Circuit.create 2 [ instr Gate.CX [ 0; 1 ] ] in
  let params = Qroute.Engine.default_params in
  (match
     Qroute.Engine.route_once params edgeless
       ~rng:(Qroute.Engine.route_rng params)
       ~dist:(Topology.Distmat.hops edgeless)
       ~bonus:Qroute.Engine.zero_bonus c [| 0; 1 |]
   with
  | _ -> Alcotest.fail "expected Routing_stuck"
  | exception Qroute.Engine.Routing_stuck { front; l2p } ->
      check "front carries the blocked gate" true (front = [ (0, 1) ]);
      check "mapping snapshot" true (l2p = [| 0; 1 |]));
  (* the registered printer renders the payload *)
  (try
     ignore
       (Qroute.Engine.route_once params edgeless
          ~rng:(Qroute.Engine.route_rng params)
          ~dist:(Topology.Distmat.hops edgeless)
          ~bonus:Qroute.Engine.zero_bonus c [| 0; 1 |])
   with e ->
     let s = Printexc.to_string e in
     check "printer names the front" true
       (String.length s > 0
       && String.sub s 0 (min 20 (String.length s)) = "Engine.Routing_stuck"));
  (* every path that routes reports it as one diagnostic with that text *)
  let route () =
    Qroute.Engine.route_once params edgeless
      ~rng:(Qroute.Engine.route_rng params)
      ~dist:(Topology.Distmat.hops edgeless)
      ~bonus:Qroute.Engine.zero_bonus c [| 0; 1 |]
  in
  match Checked.catch_stuck route with
  | Ok _ -> Alcotest.fail "expected route.stuck"
  | Error d ->
      check "route.stuck at the route stage" true
        (d.rule = "route.stuck" && Diagnostic.is_error d
        && d.loc = Some (Diagnostic.Stage "route"));
      Alcotest.(check string)
        "registered printer text"
        "Engine.Routing_stuck: no swap candidates for front {(0,1)} under mapping [0 1]"
        d.message

(* a circuit wider than the device is one located diagnostic on every
   routing path, never the engine's Invalid_argument; without routing
   (Full_connectivity) the device is ignored *)
let test_too_wide () =
  let coupling = Topology.Devices.linear 3 in
  let circuit = Qbench.Generators.qft 4 in
  let expect what = function
    | Error (d : Diagnostic.t) ->
        check (what ^ ": route.too-wide at the route stage") true
          (d.rule = "route.too-wide" && Diagnostic.is_error d
          && d.loc = Some (Diagnostic.Stage "route"));
        Alcotest.(check string)
          (what ^ ": names both sizes") "the circuit has 4 qubits but the device has 3"
          d.message
    | Ok () -> Alcotest.fail (what ^ ": a 4-qubit circuit fits a 3-qubit device")
  in
  List.iter
    (fun (name, router) -> expect name (Checked.check_width ~router coupling 4))
    Qroute.Pipeline.routers;
  (match Checked.transpile ~router:Qroute.Pipeline.Sabre_router coupling circuit with
  | Error [ d ] -> expect "Checked.transpile" (Error d)
  | Error _ -> Alcotest.fail "Checked.transpile: expected one diagnostic"
  | Ok _ -> Alcotest.fail "Checked.transpile routed a circuit wider than the device");
  check "a circuit that fits passes" true
    (Checked.check_width ~router:Qroute.Pipeline.Sabre_router coupling 3 = Ok ());
  check "no routing, no width limit" true
    (Checked.check_width ~router:Qroute.Pipeline.Full_connectivity coupling 4 = Ok ())

(* ---------- commutation / savings audit ---------- *)

let test_audit () =
  let rep = Audit.run ~seed:5 () in
  List.iter (fun (d : Diagnostic.t) -> Printf.printf "audit: %s\n" d.message) rep.diags;
  check "audit sound" true (rep.diags = []);
  check "swept the vocabulary" true (rep.pairs_checked > 1000);
  check "covered the scenarios" true (rep.scenarios_checked > 15)

(* ---------- diagnostics plumbing ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_diagnostic_format () =
  let d =
    Diagnostic.error ~loc:(Diagnostic.Instr 3) ~rule:"route.check-map" "cx on \"bad\" pair"
  in
  let json = Diagnostic.to_json d in
  check "json has rule" true (contains json "\"rule\":\"route.check-map\"");
  check "json escapes quotes" true (contains json "\\\"bad\\\"");
  let s = Format.asprintf "%a" Diagnostic.pp d in
  check "pp names severity" true (contains s "error[");
  checki "counter counts" 2
    (List.length
       (Diagnostic.errors
          [ d; Diagnostic.warning ~rule:"x" "w"; Diagnostic.error ~rule:"y" "e" ]))

let () =
  Alcotest.run "qlint"
    [
      ( "rules",
        [
          Alcotest.test_case "bad fixtures trip their rule" `Quick test_bad_fixtures;
          Alcotest.test_case "qasm lint" `Quick test_lint_qasm;
          Alcotest.test_case "dead gates warn, never error" `Quick test_dead_gates;
          Alcotest.test_case "diagnostic format" `Quick test_diagnostic_format;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "canonical pipelines legal" `Quick
            test_validator_accepts_canonical;
          Alcotest.test_case "illegal orderings rejected" `Quick test_validator_rejects;
          Alcotest.test_case "stage names validate" `Quick
            test_guarded_transpile_rejects_statically;
          Alcotest.test_case "checked mode clean" `Quick test_checked_clean_pipeline;
          Alcotest.test_case "checked mode catches violations" `Quick
            test_checked_catches_broken_stage;
        ] );
      ( "routing",
        [
          Alcotest.test_case "transpile results lint clean" `Slow
            test_transpile_passes_lint;
          Alcotest.test_case "routing stuck is typed" `Quick test_routing_stuck;
          Alcotest.test_case "circuit wider than the device" `Quick test_too_wide;
        ] );
      ("audit", [ Alcotest.test_case "tables vs ground truth" `Slow test_audit ]);
    ]
