(* Optimality-gap regression against the recorded corpus
   (test/goldens/gap.golden, regenerated by `golden_gen gap`).

   The golden file stores, per (corpus circuit, topology), the oracle's
   certified optimal SWAP count ("?" where the certification budget
   tripped) and every router's inserted-swap count at the canonical seed.
   Certifying optima is expensive (the generator runs the exact solver for
   a minute), so this test re-runs only the cheap half — the routers — and
   checks against the recorded numbers:
   - soundness: no router beats a certified optimum (a router below the
     oracle means one of the two is broken);
   - no regression: each router's gap never grows (swaps <= recorded,
     improvements are allowed and show up when regenerating);
   - portfolio invariant: hybrid is never worse than NASSC, which
     Pipeline.route guarantees by construction at equal seeds.
   It also pins the line format: the gap experiment's rows for ghz3
   (optimum 0, so certifying them is cheap), rendered by
   Qbench.Experiment.lines, are the golden's first three lines. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let golden_path =
  if Sys.file_exists "goldens/gap.golden" then "goldens/gap.golden"
  else "test/goldens/gap.golden"

type row = {
  circuit : string;
  topology : string;
  optimal : int option;
  recorded : (string * int) list;
}

let parse_line ln =
  match String.split_on_char ' ' (String.trim ln) with
  | circuit :: topology :: kvs ->
      let kv s =
        match String.index_opt s '=' with
        | Some i ->
            (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
        | None -> Alcotest.fail (Printf.sprintf "gap.golden: bad field %S in %S" s ln)
      in
      let fields = List.map kv kvs in
      let optimal =
        match List.assoc_opt "opt" fields with
        | Some "?" -> None
        | Some v -> Some (int_of_string v)
        | None -> Alcotest.fail (Printf.sprintf "gap.golden: missing opt in %S" ln)
      in
      let recorded =
        List.filter_map
          (fun (k, v) ->
            if k = "opt" || k = "2q" then None else Some (k, int_of_string v))
          fields
      in
      { circuit; topology; optimal; recorded }
  | _ -> Alcotest.fail (Printf.sprintf "gap.golden: bad line %S" ln)

let rows () =
  read_file golden_path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse_line

let router_of_name name =
  match Qroute.Pipeline.router_of_name name with
  | Ok r -> r
  | Error e -> Alcotest.fail ("gap.golden: " ^ e)

let corpus_entry name =
  match
    List.find_opt
      (fun (e : Qbench.Suite.entry) -> e.name = name)
      Qbench.Gapcorpus.circuits
  with
  | Some e -> e
  | None -> Alcotest.fail ("gap.golden references unknown corpus circuit " ^ name)

let coupling_of name =
  match List.assoc_opt name Qbench.Gapcorpus.topologies with
  | Some c -> c
  | None -> Alcotest.fail ("gap.golden references unknown topology " ^ name)

let test_corpus () =
  let params = { Qroute.Engine.default_params with seed = 11 } in
  let rows = rows () in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length rows >= 50);
  List.iter
    (fun row ->
      let e = corpus_entry row.circuit in
      let coupling = coupling_of row.topology in
      let where = Printf.sprintf "%s/%s" row.circuit row.topology in
      let swaps =
        List.map
          (fun (rname, recorded) ->
            let r =
              Qroute.Pipeline.transpile ~params ~trials:1
                ~router:(router_of_name rname) coupling (e.build ())
            in
            let n = r.Qroute.Pipeline.n_swaps in
            (match row.optimal with
            | Some opt ->
                if n < opt then
                  Alcotest.failf "%s: %s inserted %d swaps, below certified optimum %d"
                    where rname n opt
            | None -> ());
            if n > recorded then
              Alcotest.failf "%s: %s gap regressed (%d swaps > recorded %d)" where
                rname n recorded;
            (rname, n))
          row.recorded
      in
      match (List.assoc_opt "hybrid" swaps, List.assoc_opt "nassc" swaps) with
      | Some h, Some n ->
          if h > n then
            Alcotest.failf "%s: hybrid (%d) worse than nassc (%d)" where h n
      | _ -> Alcotest.fail (where ^ ": golden row missing hybrid or nassc"))
    rows

(* the recorded optima are certified lower bounds: spot-check a handful
   against a fresh oracle run so a corrupted golden cannot silently pass *)
let test_optima_spot_check () =
  let spot = [ ("qft4", "line5"); ("ghz4", "grid2x3"); ("bv4", "ring5") ] in
  List.iter
    (fun (cname, tname) ->
      let row =
        match
          List.find_opt (fun r -> r.circuit = cname && r.topology = tname) (rows ())
        with
        | Some r -> r
        | None -> Alcotest.fail (Printf.sprintf "%s/%s missing from gap.golden" cname tname)
      in
      let e = corpus_entry cname in
      let logical =
        Qroute.Pipeline.pre_optimize (Qroute.Pipeline.lower_to_2q (e.build ()))
      in
      match Qroute.Exact.min_swaps (coupling_of tname) logical with
      | Qroute.Exact.Routed { n_swaps; _ } ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s/%s optimum" cname tname)
            (Some n_swaps) row.optimal
      | Qroute.Exact.Route_budget_exceeded ->
          Alcotest.fail (Printf.sprintf "%s/%s: spot-check exceeded budget" cname tname))
    spot

let test_lines_format () =
  let x = Qbench.Experiment.gap ~full:true in
  let ghz3 = List.filter (fun (e : Qbench.Suite.entry) -> e.name = "ghz3") x.entries in
  let rendered =
    String.concat ""
      (List.map Qbench.Experiment.lines (Qbench.Experiment.run [ { x with entries = ghz3 } ]))
  in
  let first_three =
    match String.split_on_char '\n' (read_file golden_path) with
    | a :: b :: c :: _ -> String.concat "\n" [ a; b; c ] ^ "\n"
    | _ -> Alcotest.fail "gap.golden has fewer than three lines"
  in
  Alcotest.(check string) "ghz3 rows render as the golden's first lines" first_three rendered

let () =
  Alcotest.run "gap"
    [
      ( "corpus",
        [
          Alcotest.test_case "gaps within recorded bounds" `Slow test_corpus;
          Alcotest.test_case "optima spot check" `Slow test_optima_spot_check;
          Alcotest.test_case "ghz3 lines match the golden" `Quick test_lines_format;
        ] );
    ]
