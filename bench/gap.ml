(* Optimality-gap harness (`bench --only gap [--quick] [--out FILE]`).

   For every corpus circuit x small topology, the exact oracle
   (Qroute.Exact.min_swaps, free layout) certifies the true minimum SWAP
   count for the *same* pre-optimized logical circuit the routers see;
   each router is then scored by its absolute gap (inserted swaps minus
   the optimum).  The table is printed and written as a schema-versioned
   BENCH_<git-sha>-gap.json snapshot, the gap-side sibling of the
   regress snapshot. *)

module J = Qbench.Jsonlite
module S = Qbench.Snapshot

let schema_version = 1
let kind = "nassc-bench-gap"

(* generous: the oracle is only consulted offline, and corpus instances
   are small enough that certified optima matter more than latency *)
let oracle_budget = { Qroute.Exact.max_nodes = 5_000_000; max_seconds = infinity }

let routers = Qroute.Pipeline.select_routers [ "sabre"; "nassc"; "astar"; "hybrid" ]

type row = {
  circuit : string;
  topology : string;
  n_qubits : int;
  two_q : int;  (** two-qubit gates in the routed (pre-optimized) circuit *)
  optimal : int option;  (** None: oracle budget exceeded *)
  swaps : (string * int) list;  (** per router, in [routers] order *)
}

let run ?(seed = 11) ~quick ~out () =
  Printf.printf "=== optimality gap (%s corpus, seed %d, trials 1) ===\n%!"
    (if quick then "quick" else "full")
    seed;
  let params = { Qroute.Engine.default_params with seed } in
  let entries = Qbench.Gapcorpus.suite ~quick in
  let rows =
    List.concat_map
      (fun (e : Qbench.Gapcorpus.entry) ->
        (* the exact circuit the routers route: lowered then pre-optimized *)
        let logical =
          Qroute.Pipeline.pre_optimize (Qroute.Pipeline.lower_to_2q (e.build ()))
        in
        let two_q = Qcircuit.Circuit.two_qubit_count logical in
        List.map
          (fun (tname, coupling) ->
            Printf.printf "  %-10s %-8s ...%!" e.name tname;
            let optimal =
              match Qroute.Exact.min_swaps ~budget:oracle_budget coupling logical with
              | Qroute.Exact.Routed { n_swaps; _ } -> Some n_swaps
              | Qroute.Exact.Route_budget_exceeded -> None
            in
            let swaps =
              List.map
                (fun (rname, router) ->
                  let r =
                    Qroute.Pipeline.transpile ~params ~trials:1 ~router coupling
                      (e.build ())
                  in
                  (rname, r.Qroute.Pipeline.n_swaps))
                routers
            in
            let opt_str =
              match optimal with Some o -> string_of_int o | None -> "?"
            in
            Printf.printf " 2q=%d opt=%s %s\n%!" two_q opt_str
              (String.concat " "
                 (List.map (fun (n, s) -> Printf.sprintf "%s=%d" n s) swaps));
            { circuit = e.name; topology = tname; n_qubits = e.n_qubits; two_q;
              optimal; swaps })
          Qbench.Gapcorpus.topologies)
      entries
  in
  (* gap table *)
  Printf.printf "\n%-10s %-8s %4s %4s" "circuit" "topology" "2q" "opt";
  List.iter (fun (n, _) -> Printf.printf " %10s" (n ^ " gap")) routers;
  Printf.printf "\n";
  let sums = Array.make (List.length routers) 0 in
  let counted = ref 0 in
  List.iter
    (fun r ->
      let opt_str = match r.optimal with Some o -> string_of_int o | None -> "?" in
      Printf.printf "%-10s %-8s %4d %4s" r.circuit r.topology r.two_q opt_str;
      (match r.optimal with
      | Some o ->
          incr counted;
          List.iteri
            (fun i (_, s) ->
              sums.(i) <- sums.(i) + (s - o);
              Printf.printf " %10d" (s - o))
            r.swaps
      | None -> List.iter (fun _ -> Printf.printf " %10s" "-") r.swaps);
      Printf.printf "\n")
    rows;
  if !counted > 0 then begin
    Printf.printf "%-10s %-8s %4s %4s" "TOTAL" "" "" "";
    Array.iter (fun s -> Printf.printf " %10d" s) sums;
    Printf.printf "   (over %d certified instances)\n" !counted
  end;
  let row_json r =
    J.Obj
      ([
         ("circuit", J.Str r.circuit);
         ("topology", J.Str r.topology);
         ("n_qubits", J.int r.n_qubits);
         ("two_q", J.int r.two_q);
         ("optimal", Option.fold ~none:J.Null ~some:J.int r.optimal);
       ]
      @ List.map (fun (n, s) -> (n, J.int s)) r.swaps)
  in
  let doc =
    S.document ~schema_version ~kind
      [
        ("suite", J.Str (if quick then "quick" else "full"));
        ("seed", J.int seed);
        ("rows", J.List (List.map row_json rows));
      ]
  in
  Printf.printf "snapshot: %s\n" (S.write ?out ~suffix:"-gap" doc)
