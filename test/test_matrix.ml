(* The benchmark-matrix harness (Qbench.Matrix):
   - the quick-subset golden corpus (test/goldens/matrix.golden) is
     byte-identical for worker counts 1 and 4,
   - every cell agrees with a direct Pipeline.transpile run of the same
     (circuit, topology, router, seed, trials) tuple, and its ESP column
     with a direct Qsim.Success.routed_esp evaluation,
   - the JSON export round-trips through Qbench.Jsonlite exactly,
   - the markdown table covers every cell. *)

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

let quick_cells ~workers =
  Matrix.run ~workers
    ~instances:(Matrix.instances ~quick:true)
    ~topologies:(Matrix.golden_topologies ())
    ()

let test_golden_workers_1_vs_4 () =
  let expected = read_file golden_path in
  let w1 = Matrix.golden_lines (quick_cells ~workers:1) in
  let w4 = Matrix.golden_lines (quick_cells ~workers:4) in
  checks "workers=1 matches checked-in golden" expected w1;
  checks "workers=4 matches checked-in golden" expected w4

let test_cell_coverage () =
  let cells = quick_cells ~workers:2 in
  (* one instance per family x 2 golden topologies x all 6 routers *)
  let families = List.sort_uniq compare (List.map (fun c -> c.Matrix.family) cells) in
  checki "five families" 5 (List.length families);
  checki "full cross product" (5 * 2 * 6) (List.length cells);
  List.iter
    (fun (rname, _) ->
      checki
        (Printf.sprintf "%s appears once per (instance, topology)" rname)
        (5 * 2)
        (List.length (List.filter (fun c -> c.Matrix.router = rname) cells)))
    Qroute.Pipeline.routers

(* every matrix row must be reproducible by a direct pipeline run of the
   same (circuit, topology, router, seed, trials) tuple *)
let test_rows_agree_with_pipeline () =
  let cells = quick_cells ~workers:2 in
  let params = { Qroute.Engine.default_params with seed = Matrix.default_seed } in
  List.iter
    (fun (c : Matrix.cell) ->
      let i =
        List.find
          (fun (i : Matrix.instance) -> i.family = c.family && i.instance = c.instance)
          (Matrix.instances ~quick:true)
      in
      let coupling = List.assoc c.topology (Matrix.golden_topologies ()) in
      let router = List.assoc c.router Qroute.Pipeline.routers in
      let r =
        Qroute.Pipeline.transpile ~params ~trials:Matrix.default_trials ~router coupling
          (i.build ())
      in
      let tag = Printf.sprintf "%s/%s/%s/%s" c.family c.instance c.topology c.router in
      checki (tag ^ " cx") r.cx_total c.cx_total;
      checki (tag ^ " depth") r.depth c.depth;
      checki (tag ^ " swaps") r.n_swaps c.n_swaps;
      match r.final_layout with
      | None -> Alcotest.fail (tag ^ ": no final layout")
      | Some fl ->
          let cal = Topology.Calibration.generate coupling in
          let esp = Qsim.Success.routed_esp ~cal ~routed:r.circuit ~final_layout:fl in
          check (tag ^ " esp") true (esp = c.esp))
    cells

let test_json_roundtrip () =
  let cells = quick_cells ~workers:2 in
  let json =
    Matrix.to_json ~suite:"quick" ~seed:Matrix.default_seed
      ~trials:Matrix.default_trials cells
  in
  let reparsed = Jsonlite.of_string (Jsonlite.serialize ~indent:2 json) in
  let open Jsonlite in
  checki "schema version"
    Matrix.schema_version
    (Option.get (Option.bind (member "schema_version" reparsed) to_int));
  let rows = Option.get (Option.bind (member "cells" reparsed) to_list) in
  checki "all cells exported" (List.length cells) (List.length rows);
  List.iter2
    (fun (c : Matrix.cell) row ->
      let f key = Option.get (Option.bind (member key row) to_float) in
      check "depth_overhead round-trips exactly" true (f "depth_overhead" = c.depth_overhead);
      check "esp round-trips exactly" true (f "esp" = c.esp);
      checki "cx" c.cx_total (int_of_float (f "cx_total")))
    cells rows

let test_markdown () =
  let cells = quick_cells ~workers:2 in
  let md = Matrix.markdown cells in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' md) in
  checki "header + separator + one row per cell" (2 + List.length cells)
    (List.length lines);
  check "has esp column" true
    (match lines with
    | header :: _ ->
        let contains s sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        contains header "esp" && contains header "depth_overhead"
    | [] -> false)

let () =
  Alcotest.run "matrix"
    [
      ( "golden",
        [
          Alcotest.test_case "workers 1 and 4 byte-identical to corpus" `Quick
            test_golden_workers_1_vs_4;
          Alcotest.test_case "cell coverage" `Quick test_cell_coverage;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "cells reproduce direct pipeline runs" `Quick
            test_rows_agree_with_pipeline;
        ] );
      ( "export",
        [
          Alcotest.test_case "json round-trip exact" `Quick test_json_roundtrip;
          Alcotest.test_case "markdown table" `Quick test_markdown;
        ] );
    ]
