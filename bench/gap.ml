(* Optimality-gap harness (`bench --only gap [--quick] [--out FILE]`).

   For every corpus circuit x small topology, the exact oracle
   (Qroute.Exact.min_swaps, free layout) certifies the true minimum SWAP
   count for the *same* pre-optimized logical circuit the routers see;
   each router is then scored by its absolute gap (inserted swaps minus
   the optimum).  The table is printed and written as a schema-versioned
   BENCH_<git-sha>-gap.json snapshot. *)

module J = Qbench.Jsonlite
module S = Qbench.Snapshot

let schema_version = 1
let kind = "nassc-bench-gap"

module G = Qbench.Gapcorpus

let run ~quick ~out () =
  Printf.printf "=== optimality gap (%s corpus, seed %d, trials 1) ===\n%!"
    (if quick then "quick" else "full")
    G.seed;
  let rows =
    List.concat_map
      (fun (e : G.entry) ->
        List.map
          (fun (tname, coupling) ->
            Printf.printf "  %-10s %-8s ...%!" e.name tname;
            let r = G.row e coupling in
            Printf.printf " %s\n%!" (G.fields r);
            (e, tname, r))
          G.topologies)
      (G.suite ~quick)
  in
  (* gap table *)
  Printf.printf "\n%-10s %-8s %4s %4s" "circuit" "topology" "2q" "opt";
  List.iter (fun (n, _) -> Printf.printf " %10s" (n ^ " gap")) G.routers;
  Printf.printf "\n";
  let sums = Array.make (List.length G.routers) 0 in
  let counted = ref 0 in
  List.iter
    (fun ((e : G.entry), tname, (r : G.row)) ->
      Printf.printf "%-10s %-8s %4d %4s" e.name tname r.two_q (G.optimal_string r);
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
  let row_json ((e : G.entry), tname, (r : G.row)) =
    J.Obj
      ([
         ("circuit", J.Str e.name);
         ("topology", J.Str tname);
         ("n_qubits", J.int e.n_qubits);
         ("two_q", J.int r.two_q);
         ("optimal", Option.fold ~none:J.Null ~some:J.int r.optimal);
       ]
      @ List.map (fun (n, s) -> (n, J.int s)) r.swaps)
  in
  let doc =
    S.document ~schema_version ~kind
      [
        ("suite", J.Str (if quick then "quick" else "full"));
        ("seed", J.int G.seed);
        ("rows", J.List (List.map row_json rows));
      ]
  in
  Printf.printf "snapshot: %s\n" (S.write ?out ~suffix:"-gap" doc)
