(* The routing golden corpus: a fixed set of (circuit, topology, router,
   trials) cells whose transpiled outputs are fingerprinted and checked
   into test/goldens/routing.golden.  The corpus is shared between the
   regeneration tool (tools/golden_gen) and the byte-identity test
   (test/test_goldens.ml) so both always agree on what is being pinned.

   These fingerprints capture the pre-incremental-engine outputs: any
   change to candidate enumeration order, tie-breaking, heuristic
   arithmetic, or SWAP decomposition at a fixed seed shows up as a digest
   mismatch.  Perf reworks must keep every cell byte-identical. *)

open Mathkit
open Qcircuit
open Qgate

(* same shape as the test_trials generator: 3-5 logical qubits, mixed
   1q/2q traffic, deterministic per seed *)
let random_circuit seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 3 in
  let b = Circuit.Builder.create n in
  let len = 6 + Rng.int rng 20 in
  for _ = 1 to len do
    match Rng.int rng 6 with
    | 0 -> Circuit.Builder.add b Gate.H [ Rng.int rng n ]
    | 1 -> Circuit.Builder.add b (Gate.RZ (Rng.float rng 6.28)) [ Rng.int rng n ]
    | 2 -> Circuit.Builder.add b Gate.SX [ Rng.int rng n ]
    | 3 -> Circuit.Builder.add b Gate.T [ Rng.int rng n ]
    | _ ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b Gate.CX [ a; c ]
  done;
  Circuit.Builder.circuit b

let circuits () =
  [
    ("qft5", Qbench.Generators.qft 5);
    ("rand3", random_circuit 3);
    ("rand17", random_circuit 17);
  ]

(* the four topology families of the paper's evaluation, each sized to
   hold the <=5-qubit corpus circuits *)
let topologies () =
  [
    ("linear7", Topology.Devices.linear 7);
    ("ring7", Topology.Devices.ring 7);
    ("grid2x4", Topology.Devices.grid 2 4);
    ("heavyhex2x2", Topology.Devices.heavy_hex 2 2);
  ]

let trials_axis = [ 1; 8 ]
let seed = 11

let layout_str = function
  | None -> "-"
  | Some a -> String.concat "," (Array.to_list (Array.map string_of_int a))

(* byte-level fingerprint of everything routing determines: the emitted
   QASM plus both layouts *)
let fingerprint (r : Qroute.Pipeline.result) =
  Digest.to_hex
    (Digest.string
       (Qasm.to_string r.circuit ^ "|" ^ layout_str r.initial_layout ^ "|"
      ^ layout_str r.final_layout))

let cell_line cname tname rname trials (r : Qroute.Pipeline.result) =
  Printf.sprintf "%s %s %s trials=%d cx=%d depth=%d swaps=%d %s" cname tname
    rname trials r.cx_total r.depth r.n_swaps (fingerprint r)

let lines () =
  List.concat_map
    (fun (cname, circuit) ->
      List.concat_map
        (fun (tname, coupling) ->
          List.concat_map
            (fun (rname, router) ->
              List.map
                (fun trials ->
                  let params = { Qroute.Engine.default_params with seed } in
                  let r =
                    Qroute.Pipeline.transpile ~params ~trials ~workers:2 ~router
                      coupling circuit
                  in
                  cell_line cname tname rname trials r)
                trials_axis)
            Qroute.Pipeline.routers)
        (topologies ()))
    (circuits ())

let generate () = String.concat "\n" (lines ()) ^ "\n"

(* ---- the benchmark-matrix and optimality-gap golden corpora ----

   Both are rendered from the experiments' stored fields by
   Qbench.Experiment.lines.  test/goldens/matrix.golden pins the quick
   matrix on its two smallest topologies (line5, grid2x3), so the file
   stays short and regeneration cheap; its cells are deterministic for any
   worker count, and the matrix test checks workers 1 and 4 against the
   same bytes.  test/goldens/gap.golden pins the whole gap corpus: the
   exact oracle's certified optimum of every (circuit, topology) and each
   router's inserted SWAPs, which the gap test re-runs (cheap) against the
   recorded optima (expensive to certify). *)

let matrix_experiment () =
  {
    (Qbench.Experiment.matrix ~full:false) with
    devices = [ ("line5", Topology.Devices.linear 5); ("grid2x3", Topology.Devices.grid 2 3) ];
  }

let experiment_lines ?workers x =
  String.concat "" (List.map Qbench.Experiment.lines (Qbench.Experiment.run ?workers [ x ]))

let generate_matrix ?(workers = 2) () = experiment_lines ~workers (matrix_experiment ())
let generate_gap () = experiment_lines (Qbench.Experiment.gap ~full:true)
