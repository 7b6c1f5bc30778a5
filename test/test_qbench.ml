open Qcircuit
open Qbench

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let lowered_cx c =
  Circuit.cx_count (Qroute.Pipeline.lower_to_2q c)

(* paper Table I CNOT_total calibration points that our generators match
   exactly (see Generators doc) *)
let test_vqe_cx_counts () =
  checki "vqe8 = 84" 84 (lowered_cx (Generators.vqe 8));
  checki "vqe12 = 198" 198 (lowered_cx (Generators.vqe 12))

let test_bv_cx_count () = checki "bv19 = 18" 18 (lowered_cx (Generators.bernstein_vazirani 19))

let test_qft_cx_counts () =
  checki "qft15 = 210" 210 (lowered_cx (Generators.qft 15));
  checki "qft20 = 380 (paper 374 post-opt)" 380 (lowered_cx (Generators.qft 20))

let test_grover4_cx_count () = checki "grover4 = 84" 84 (lowered_cx (Generators.grover 4))

let test_adder_cx_count () = checki "adder10 = 65" 65 (lowered_cx (Generators.adder 10))

let test_qubit_counts () =
  List.iter
    (fun (e : Suite.entry) ->
      checki (e.name ^ " qubits") e.n_qubits (Circuit.n_qubits (e.build ())))
    Suite.paper_suite

let test_suite_complete () =
  checki "15 benchmarks" 15 (List.length Suite.paper_suite);
  check "has heavy entries" true (List.exists (fun e -> e.Suite.heavy) Suite.paper_suite);
  check "has noise subset" true
    (List.exists (fun e -> e.Suite.noise_subset) Suite.paper_suite)

let test_find () =
  let e = Suite.find "QFT 15-qubits" in
  checki "qft15 qubits" 15 e.n_qubits;
  check "unknown raises" true
    (try
       ignore (Suite.find "nope");
       false
     with Not_found -> true)

let test_revlib_targets () =
  (* lowered CNOT totals approximate the paper's originals (within 2%) *)
  let close name target c =
    let cx = lowered_cx c in
    let err = Float.abs (float_of_int (cx - target)) /. float_of_int target in
    check (Printf.sprintf "%s cx %d within 2%% of %d" name cx target) true (err < 0.02)
  in
  close "sqn_258" 4459 (Revlib_like.sqn_258 ());
  close "rd84_253" 5960 (Revlib_like.rd84_253 ());
  close "co14_215" 7840 (Revlib_like.co14_215 ());
  close "sym9_193" 15232 (Revlib_like.sym9_193 ())

let test_revlib_deterministic () =
  check "same seed, same netlist" true
    (Circuit.equal (Revlib_like.sqn_258 ()) (Revlib_like.sqn_258 ()));
  check "different seeds differ" false
    (Circuit.equal (Revlib_like.sqn_258 ()) (Revlib_like.mct_netlist ~seed:1 ~n:10 ~target_cx:4459))

let test_grover_finds_marked_state () =
  (* grover-4 must concentrate probability on |1111> *)
  let c = Generators.grover 4 in
  let s = Qsim.State.create 4 in
  Qsim.State.apply_circuit s c;
  let p_marked = Qsim.State.probability s 0b1111 in
  check "marked state amplified" true (p_marked > 0.5);
  checki "most likely is marked" 0b1111 (Qsim.State.most_likely s)

let test_qpe_estimates_phase () =
  (* phase 0.3203125 = 0.0101001b exactly representable on 8 counting bits *)
  let c = Generators.qpe 9 in
  let s = Qsim.State.create 9 in
  Qsim.State.apply_circuit s c;
  let out = Qsim.State.most_likely s in
  (* counting register = qubits 0..7, qubit 0 the most significant bit of
     the estimate; the eigen qubit is the least significant index bit *)
  let counting = out lsr 1 in
  let est = float_of_int counting /. 256.0 in
  let target = 0.3203125 in
  check "qpe phase recovered exactly" true (Float.abs (est -. target) < 1e-9);
  check "estimate deterministic" true (Qsim.State.probability s out > 0.99)

(* ---- matrix-family generator properties ----

   Every parameterized family must be a pure function of its arguments
   (same seed => byte-identical circuit, checked through Gate.add_signature
   hashing), hit its closed-form instruction budget exactly, keep every
   operand in range, and land its 2q-gate density / edge probability where
   the parameters asked. *)

let circuit_digest c =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int (Circuit.n_qubits c));
  List.iter
    (fun (i : Circuit.instr) ->
      Qgate.Gate.add_signature b i.gate;
      List.iter
        (fun q ->
          Buffer.add_char b ':';
          Buffer.add_string b (string_of_int q))
        i.qubits;
      Buffer.add_char b ';')
    (Circuit.instrs c);
  Digest.to_hex (Digest.string (Buffer.contents b))

let operands_in_range c =
  let n = Circuit.n_qubits c in
  List.for_all
    (fun (i : Circuit.instr) -> List.for_all (fun q -> q >= 0 && q < n) i.qubits)
    (Circuit.instrs c)

let prop_random_density =
  let gen =
    QCheck.Gen.(
      quad (int_range 0 1_000_000) (int_range 2 10) (int_range 0 80)
        (oneofl [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ]))
  in
  QCheck.Test.make ~name:"random_density: deterministic, exact budget, in range"
    ~count:60 (QCheck.make gen) (fun (seed, n, gates, density) ->
      let c = Generators.random_density ~seed ~gates ~density n in
      let c' = Generators.random_density ~seed ~gates ~density n in
      let n2q = int_of_float (Float.round (density *. float_of_int gates)) in
      circuit_digest c = circuit_digest c'
      && Circuit.size c = gates
      && Circuit.two_qubit_count c = n2q
      && operands_in_range c
      (* realized density sits inside the requested bucket (rounding only) *)
      && (gates = 0
         || Float.abs
              ((float_of_int (Circuit.two_qubit_count c) /. float_of_int gates)
              -. density)
            <= (0.5 /. float_of_int gates) +. 1e-9))

let prop_qaoa_er =
  let gen =
    QCheck.Gen.(
      quad (int_range 0 1_000_000) (int_range 2 10) (int_range 0 3)
        (oneofl [ 0.0; 0.3; 0.5; 0.8; 1.0 ]))
  in
  QCheck.Test.make ~name:"qaoa_erdos_renyi: deterministic, graph-consistent budget"
    ~count:60 (QCheck.make gen) (fun (seed, n, p, edge_prob) ->
      let c = Generators.qaoa_erdos_renyi ~seed ~p ~edge_prob n in
      let c' = Generators.qaoa_erdos_renyi ~seed ~p ~edge_prob n in
      let edges = Generators.erdos_renyi_edges ~seed ~edge_prob n in
      let e = List.length edges in
      let max_pairs = n * (n - 1) / 2 in
      let sorted_distinct =
        List.sort_uniq compare edges = edges
        && List.for_all (fun (u, v) -> 0 <= u && u < v && v < n) edges
      in
      circuit_digest c = circuit_digest c'
      && sorted_distinct
      && Circuit.size c = n + (p * (e + n))
      && Circuit.gate_count c "h" = n
      && Circuit.gate_count c "rzz" = p * e
      && Circuit.gate_count c "rx" = p * n
      && operands_in_range c
      && (edge_prob > 0.0 || e = 0)
      && (edge_prob < 1.0 || e = max_pairs))

let prop_brickwork =
  let gen =
    QCheck.Gen.(triple (int_range 0 1_000_000) (int_range 2 12) (int_range 0 6))
  in
  QCheck.Test.make ~name:"supremacy_brickwork: deterministic, exact budget" ~count:60
    (QCheck.make gen) (fun (seed, n, cycles) ->
      let c = Generators.supremacy_brickwork ~seed ~cycles n in
      let c' = Generators.supremacy_brickwork ~seed ~cycles n in
      let czs = ref 0 in
      for cycle = 0 to cycles - 1 do
        czs := !czs + if cycle mod 2 = 0 then n / 2 else (n - 1) / 2
      done;
      circuit_digest c = circuit_digest c'
      && Circuit.size c = (cycles * n) + !czs
      && Circuit.two_qubit_count c = !czs
      && Circuit.gate_count c "cz" = !czs
      && operands_in_range c)

let prop_ghz_chain =
  QCheck.Test.make ~name:"ghz_chain: exact budget, chain depth" ~count:20
    (QCheck.make (QCheck.Gen.int_range 2 15)) (fun n ->
      let c = Generators.ghz_chain n in
      Circuit.equal c (Generators.ghz_chain n)
      && Circuit.size c = n
      && Circuit.cx_count c = n - 1
      && Circuit.depth c = n
      && operands_in_range c)

let prop_cx_ladder =
  let gen = QCheck.Gen.(pair (oneofl [ 4; 6; 8; 10 ]) (int_range 1 4)) in
  QCheck.Test.make ~name:"cx_ladder: exact budget, all-CX body" ~count:20
    (QCheck.make gen) (fun (n, rounds) ->
      let c = Generators.cx_ladder ~rounds n in
      let k = n / 2 in
      Circuit.equal c (Generators.cx_ladder ~rounds n)
      && Circuit.size c = 1 + (rounds * ((3 * k) - 2))
      && Circuit.cx_count c = Circuit.size c - 1
      && Circuit.two_qubit_count c = Circuit.size c - 1
      && operands_in_range c)

(* pinned seeds => deterministic statistical check, no flake: over 200
   seeded G(8, p) draws the mean edge density must track p *)
let test_er_edge_probability () =
  let n = 8 in
  let pairs = n * (n - 1) / 2 in
  List.iter
    (fun p ->
      let total =
        List.fold_left
          (fun acc seed ->
            acc + List.length (Generators.erdos_renyi_edges ~seed ~edge_prob:p n))
          0
          (List.init 200 (fun i -> i))
      in
      let mean = float_of_int total /. float_of_int (200 * pairs) in
      check
        (Printf.sprintf "mean G(8, %.1f) density %.3f within 0.05" p mean)
        true
        (Float.abs (mean -. p) < 0.05))
    [ 0.2; 0.5; 0.8 ]

(* ---- Jsonlite printer: floats must re-parse to the same value ---- *)

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let roundtrips f =
  match Jsonlite.of_string (Jsonlite.number_to_string f) with
  | Jsonlite.Num g -> bits_equal f g
  | _ -> false

let test_jsonlite_float_roundtrip () =
  List.iter
    (fun f -> check (Printf.sprintf "%h round-trips" f) true (roundtrips f))
    [
      0.0; -0.0; 1.0; -1.0; 0.1; 1.0 /. 3.0; Float.pi; 1e-300; 4e-324;
      1.7976931348623157e308; 2.2250738585072014e-308; 9007199254740992.0;
      1.5e16; 1e22; 123456.789; -0.6496140651980709; 1.542857142857143;
    ]

let prop_jsonlite_float_roundtrip =
  QCheck.Test.make ~name:"jsonlite: every finite float round-trips exactly" ~count:500
    (QCheck.make QCheck.Gen.float) (fun f ->
      (not (Float.is_finite f)) || roundtrips f)

let test_jsonlite_serialize_roundtrip () =
  let v =
    Jsonlite.Obj
      [
        ("esp", Jsonlite.Num 0.6496140651980709);
        ("overhead", Jsonlite.Num 1.542857142857143);
        ("name\n\"quoted\"", Jsonlite.Str "tab\there");
        ("cells", Jsonlite.List [ Jsonlite.Num 3.0; Jsonlite.Bool true; Jsonlite.Null ]);
      ]
  in
  let compact = Jsonlite.of_string (Jsonlite.serialize v) in
  let pretty = Jsonlite.of_string (Jsonlite.serialize ~indent:2 v) in
  check "compact round-trip" true (compact = v);
  check "pretty round-trip" true (pretty = v)

(* ---- Qobs.json_escape: the one escaper behind every JSON writer ---- *)

let parses_back s = Jsonlite.of_string ("\"" ^ Qobs.json_escape s ^ "\"") = Jsonlite.Str s

let prop_json_escape_roundtrip =
  let byte =
    QCheck.Gen.(
      frequency
        [ (1, oneofl [ '"'; '\\'; '/' ]); (2, map Char.chr (int_range 0 0x1f)); (3, char) ])
  in
  QCheck.Test.make ~name:"json_escape: any byte string survives escape then parse" ~count:500
    (QCheck.make ~print:String.escaped QCheck.Gen.(string_size ~gen:byte (int_range 0 40)))
    parses_back

let test_json_lines_with_tabs () =
  check "quotes, backslashes and every control character" true
    (parses_back (String.init 32 Char.chr ^ "\"\\"));
  let reason = "residual\texpansion\r\nexceeded \"4096\" terms" in
  let field k line = Jsonlite.member k (Jsonlite.of_string line) in
  check "certificate line parses, reason intact" true
    (field "reason" (Qverify.to_json (Qverify.Unknown { reason })) = Some (Jsonlite.Str reason));
  check "diagnostic line parses, message intact" true
    (field "message" (Qlint.Diagnostic.to_json (Qlint.Diagnostic.warning ~rule:"t\tab" reason))
    = Some (Jsonlite.Str reason))

(* ---- Snapshot: the one BENCH_*.json writer ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_snapshot_write_roundtrip () =
  let row =
    Jsonlite.Obj
      [
        ("name", Jsonlite.Str "q\"uote back\\slash\ttab\nnewline");
        ("optimal", Jsonlite.Null);
        ("cx_total", Jsonlite.int 42);
        ("wall_s", Jsonlite.Num 0.012345678901234567);
      ]
  in
  let doc =
    Snapshot.document ~schema_version:3 ~kind:"nassc-test"
      [ ("seed", Jsonlite.int 11); ("rows", Jsonlite.List [ row ]) ]
  in
  (match doc with
  | Jsonlite.Obj kvs ->
      Alcotest.(check (list string))
        "header first, then the fields in order"
        [ "schema_version"; "kind"; "git_sha"; "seed"; "rows" ]
        (List.map fst kvs)
  | _ -> Alcotest.fail "document is not an object");
  let dir = Filename.temp_dir "qbench_snapshot" "" in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  let path = Snapshot.write ~suffix:"-test" doc in
  Alcotest.(check string)
    "default name" (Printf.sprintf "BENCH_%s-test.json" (Snapshot.git_short_sha ())) path;
  check "written file parses back to the same value" true
    (Jsonlite.of_string (read_file path) = doc);
  let custom = Snapshot.write ~out:"custom.json" ~suffix:"-test" doc in
  Alcotest.(check string) "an explicit out path wins" "custom.json" custom;
  check "same bytes at any path" true (read_file custom = read_file path);
  List.iter Sys.remove [ path; custom ];
  Sys.rmdir dir

let test_multiplier_structure () =
  let c = Generators.multiplier 25 in
  checki "25 qubits" 25 (Circuit.n_qubits c);
  let cx = lowered_cx c in
  check "multiplier size plausible (paper 670)" true (cx > 300 && cx < 1400)

let () =
  Alcotest.run "qbench"
    [
      ( "calibration",
        [
          Alcotest.test_case "vqe counts" `Quick test_vqe_cx_counts;
          Alcotest.test_case "bv count" `Quick test_bv_cx_count;
          Alcotest.test_case "qft counts" `Quick test_qft_cx_counts;
          Alcotest.test_case "grover4 count" `Quick test_grover4_cx_count;
          Alcotest.test_case "adder count" `Quick test_adder_cx_count;
          Alcotest.test_case "revlib targets" `Quick test_revlib_targets;
        ] );
      ( "suite",
        [
          Alcotest.test_case "qubit counts" `Quick test_qubit_counts;
          Alcotest.test_case "complete" `Quick test_suite_complete;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "revlib deterministic" `Quick test_revlib_deterministic;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "grover amplifies" `Quick test_grover_finds_marked_state;
          Alcotest.test_case "qpe phase" `Quick test_qpe_estimates_phase;
          Alcotest.test_case "multiplier structure" `Quick test_multiplier_structure;
        ] );
      ( "matrix families",
        [
          QCheck_alcotest.to_alcotest prop_random_density;
          QCheck_alcotest.to_alcotest prop_qaoa_er;
          QCheck_alcotest.to_alcotest prop_brickwork;
          QCheck_alcotest.to_alcotest prop_ghz_chain;
          QCheck_alcotest.to_alcotest prop_cx_ladder;
          Alcotest.test_case "erdos-renyi edge probability" `Quick
            test_er_edge_probability;
        ] );
      ( "jsonlite",
        [
          Alcotest.test_case "float round-trip corpus" `Quick
            test_jsonlite_float_roundtrip;
          QCheck_alcotest.to_alcotest prop_jsonlite_float_roundtrip;
          Alcotest.test_case "serialize/parse round-trip" `Quick
            test_jsonlite_serialize_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_escape_roundtrip;
          Alcotest.test_case "certificate and diagnostic lines with tabs" `Quick
            test_json_lines_with_tabs;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "write/parse round-trip" `Quick test_snapshot_write_roundtrip ]
      );
    ]
