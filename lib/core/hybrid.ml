(* The hybrid windowed-exact router's oracle: Exact.solve_window as the
   engine's window hook.  Every stuck front layer of two or three two-qubit
   gates is routed to adjacency with a provably minimal SWAP sequence
   (under a node budget); wider fronts and budget trips fall back to the
   heuristic scoring for that step.  Pipeline.route runs the portfolio
   around it: an oracle pass and a plain NASSC pass from one layout, the
   one with fewer SWAPs kept, ties going to the heuristic.

   Budgets are node counts, never wall clock, so the router stays a pure
   function of (circuit, coupling, seed) and sits inside the same
   fixed-seed reproducibility envelope as the other routers. *)

(* Single-pair fronts are left to the heuristic: with one stuck gate the
   oracle can only walk the shortest path, which discards the lookahead
   term for no gain.  Wider than three pairs, the exact search rarely fits
   its budget. *)
let min_window_pairs = 2
let max_window_pairs = 3

(* per-window node budget of the exact search *)
let budget = { Exact.default_budget with max_nodes = 4096 }

let c_windows = Qobs.counter "hybrid.windows_solved"
let c_fallback = Qobs.counter "hybrid.fallback_steps"

(* [dist] must be the hop metric: the oracle's admissible bound reads
   integral distances. *)
let window coupling ~dist ~front =
  let n = List.length front in
  if n < min_window_pairs || n > max_window_pairs then None
  else
    match Exact.solve_window ~budget coupling ~dist ~pairs:front with
    | Exact.Optimal ((_ :: _) as swaps) ->
        Qobs.incr c_windows;
        Some swaps
    | Exact.Optimal [] ->
        (* a stuck front can't be already adjacent, but stay safe *)
        None
    | Exact.Budget_exceeded ->
        Qobs.incr c_fallback;
        None
    | exception Invalid_argument _ ->
        (* unreachable pair (disconnected device): the heuristic path owns
           the failure mode (Routing_stuck with full context) *)
        Qobs.incr c_fallback;
        None
