(* The benchmark matrix as an experiment (Qbench.Experiment.matrix):
   - the golden quick subset (test/goldens/matrix.golden) is byte-identical
     for worker counts 1 and 4, each run transpiling afresh,
   - every cell agrees with a direct Pipeline.transpile run of the same
     (circuit, topology, router, seed, trials) tuple, and its ESP column
     with a direct Qsim.Success.routed_esp evaluation,
   - the shared snapshot round-trips through Qbench.Jsonlite exactly,
   - every instance fits every topology of its size class, so no cell is
     ever skipped. *)

open Qbench

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* dune runtest materializes the dep next to the test binary; dune exec
   runs from the project root *)
let golden_path =
  if Sys.file_exists "goldens/matrix.golden" then "goldens/matrix.golden"
  else "test/goldens/matrix.golden"

let golden_tables () =
  match Experiment.run ~workers:2 [ Golden_defs.matrix_experiment () ] with
  | [ (_, tables) ] -> tables
  | _ -> Alcotest.fail "one experiment, one result"

let num (r : Experiment.row) key =
  match List.find_opt (fun (k, _, _) -> k = key) r.fields with
  | Some (_, _, Jsonlite.Num x) -> x
  | _ -> Alcotest.failf "%s: no numeric field %s" (Experiment.row_name r) key

let test_golden_workers_1_vs_4 () =
  let expected = read_file golden_path in
  checks "workers=1 matches checked-in golden" expected
    (Golden_defs.generate_matrix ~workers:1 ());
  checks "workers=4 matches checked-in golden" expected
    (Golden_defs.generate_matrix ~workers:4 ())

let test_cell_coverage () =
  let rows = List.concat_map (fun (t : Experiment.table) -> t.rows) (golden_tables ()) in
  (* one instance per family x 2 golden topologies x all 6 routers *)
  let family (r : Experiment.row) = List.hd (String.split_on_char ' ' r.entry) in
  checki "five families" 5 (List.length (List.sort_uniq compare (List.map family rows)));
  checki "full cross product" (5 * 2 * 6) (List.length rows);
  List.iter
    (fun (rname, _) ->
      checki
        (Printf.sprintf "%s appears once per (instance, topology)" rname)
        (5 * 2)
        (List.length (List.filter (fun (r : Experiment.row) -> r.column = Some rname) rows)))
    Qroute.Pipeline.routers

(* every matrix row must be reproducible by a direct pipeline run of the
   same (circuit, topology, router, seed, trials) tuple *)
let test_rows_agree_with_pipeline () =
  let x = Golden_defs.matrix_experiment () in
  List.iter
    (fun (t : Experiment.table) ->
      let coupling = List.assoc t.device x.devices in
      List.iter
        (fun (r : Experiment.row) ->
          let e = List.find (fun (e : Suite.entry) -> e.name = r.entry) x.entries in
          let c = List.find (fun (c : Experiment.column) -> Some c.label = r.column) x.columns in
          let p =
            Qroute.Pipeline.transpile ~params:c.params ~trials:c.trials ~router:c.router coupling
              (e.build ())
          in
          let tag = Printf.sprintf "%s/%s" (Experiment.row_name r) t.device in
          checki (tag ^ " cx") p.cx_total (int_of_float (num r "cx"));
          checki (tag ^ " depth") p.depth (int_of_float (num r "depth"));
          checki (tag ^ " swaps") p.n_swaps (int_of_float (num r "swaps"));
          match p.final_layout with
          | None -> Alcotest.fail (tag ^ ": no final layout")
          | Some fl ->
              let cal = Topology.Calibration.generate coupling in
              let esp = Qsim.Success.routed_esp ~cal ~routed:p.circuit ~final_layout:fl in
              check (tag ^ " esp") true (esp = num r "esp"))
        t.rows)
    (golden_tables ())

let test_json_roundtrip () =
  let tables = golden_tables () in
  let reparsed =
    Jsonlite.of_string (Jsonlite.serialize ~indent:2 (Experiment.snapshot tables))
  in
  let open Jsonlite in
  List.iter
    (fun (t : Experiment.table) ->
      let rows = Option.get (Option.bind (member t.device reparsed) (member "rows")) in
      List.iter
        (fun (r : Experiment.row) ->
          let row = Option.get (member (Experiment.row_name r) rows) in
          let f key = Option.get (Option.bind (member key row) to_float) in
          check "overhead round-trips exactly" true (f "overhead" = num r "overhead");
          check "esp round-trips exactly" true (f "esp" = num r "esp");
          checki "cx" (int_of_float (num r "cx")) (int_of_float (f "cx")))
        t.rows)
    tables

let test_instances_fit () =
  List.iter
    (fun quick ->
      List.iter
        (fun (tname, coupling) ->
          List.iter
            (fun (e : Suite.entry) ->
              check
                (Printf.sprintf "%s fits %s" e.name tname)
                true
                (e.n_qubits <= Topology.Coupling.n_qubits coupling))
            (Matrix.instances ~quick))
        (Matrix.topologies ~quick))
    [ true; false ]

let () =
  Alcotest.run "matrix"
    [
      ( "golden",
        [
          Alcotest.test_case "workers 1 and 4 byte-identical to corpus" `Quick
            test_golden_workers_1_vs_4;
          Alcotest.test_case "cell coverage" `Quick test_cell_coverage;
          Alcotest.test_case "every instance fits every topology" `Quick test_instances_fit;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "cells reproduce direct pipeline runs" `Quick
            test_rows_agree_with_pipeline;
        ] );
      ("export", [ Alcotest.test_case "json round-trip exact" `Quick test_json_roundtrip ]);
    ]
