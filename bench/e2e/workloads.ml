(* The benchmark's four workloads.  All are closed loops: one client, and
   the next job starts when the previous one returns.  A job's seed is its
   routing seed and the seed of every seeded generator in its circuit; the
   paper circuits and the RevLib stand-ins are fixed netlists, so on those
   the seed moves only the routing.  [small] shrinks every workload to a
   few tiny jobs for the smoke test. *)

open Qroute

type input =
  | Batch of { circuit : Qcircuit.Circuit.t; gates : int  (** size after [lower_to_2q] *) }
  | Stream of (unit -> Qcircuit.Source.t)
      (** a fresh source replaying the same stream on every call *)

type job = { label : string; router : Pipeline.router; seed : int; input : input }

type t = {
  device : unit -> Topology.Coupling.t;
      (** the device a job routes on: one shared device whose distance rows
          set-up computed, or on eagle-stream a fresh device per call, so
          that every stream job computes its distance rows lazily *)
  trials : int;
  workers : int;
  jobs : job array;
}

let names = [ "montreal-small"; "montreal-revlib"; "eagle-trials"; "eagle-stream" ]

(* [transpile_stream] window for eagle-stream *)
let window = 1024

let routers =
  [ ("sabre", Pipeline.Sabre_router); ("nassc", Pipeline.Nassc_router Nassc.default_config) ]

let is_nassc = function Pipeline.Nassc_router _ -> true | _ -> false

(* Devices are rebuilt on every call (not the memoized presets). *)
let device = function
  | `Montreal ->
      let m = Topology.Devices.montreal in
      Topology.Coupling.create (Topology.Coupling.n_qubits m) (Topology.Coupling.edges m)
  | `Eagle -> Topology.Devices.heavy_hex_ibm ~distance:3

let batch (name, circuit) =
  (name, Batch { circuit; gates = Qcircuit.Circuit.size (Pipeline.lower_to_2q circuit) })

(* the matrix-family entries of [Qbench.Suite.matrix_regress_entries],
   rebuilt with the workload seed *)
let matrix_entries ~seed =
  let open Qbench.Generators in
  [
    ("RandDense 8-qubits", random_density ~seed ~gates:60 ~density:0.5 8);
    ("QAOA-ER 8-qubits", qaoa_erdos_renyi ~seed ~p:2 ~edge_prob:0.5 8);
    ("Brickwork 8-qubits", supremacy_brickwork ~seed ~cycles:6 8);
    ("Ladder 8-qubits", cx_ladder ~rounds:3 8);
    ("GHZ-chain 12-qubits", ghz_chain 12);
  ]

(* stream families sized to about [gates] requested instructions (counts
   before lowering) on [n] qubits *)
let streams ~seed ~gates n =
  let open Qbench.Generators in
  let qft_rep = n + (n * (n - 1) / 2) and qv_layer = 8 * (n / 2) in
  [
    ( Printf.sprintf "qft-stream %dq" n,
      Stream (fun () -> qft_stream ~reps:(max 1 (gates / qft_rep)) n) );
    ( Printf.sprintf "random-density %dq/%d" n gates,
      Stream (fun () -> random_density_stream ~seed ~gates ~density:0.5 n) );
    ( Printf.sprintf "qv-stream %dq" n,
      Stream (fun () -> qv_stream ~seed ~depth:(max 1 (gates / qv_layer)) n) );
  ]

let circuits ~small ~seed name =
  let open Qbench.Generators in
  match (name, small) with
  | "montreal-small", false ->
      List.map
        (fun (e : Qbench.Suite.entry) -> batch (e.name, e.build ()))
        Qbench.Suite.small_suite
      @ List.map batch (matrix_entries ~seed)
  | "montreal-small", true ->
      List.map batch
        [ ("Grover 4-qubits", grover 4); ("GHZ-chain 6-qubits", ghz_chain 6) ]
  | "montreal-revlib", false ->
      (* the four RevLib stand-ins (same netlist seeds and widths) at a
         quarter of their CNOT totals, so a pass fits the measuring time *)
      List.map
        (fun (name, seed, n, cx) ->
          batch (name, Qbench.Revlib_like.mct_netlist ~seed ~n ~target_cx:(cx / 4)))
        [
          ("sqn_258/4", 258, 10, 4459);
          ("rd84_253/4", 253, 12, 5960);
          ("co14_215/4", 215, 15, 7840);
          ("sym9_193/4", 193, 11, 15232);
        ]
  | "montreal-revlib", true ->
      [ batch ("mct-6q", Qbench.Revlib_like.mct_netlist ~seed ~n:6 ~target_cx:40) ]
  | "eagle-trials", false ->
      List.map batch
        [
          ("QFT 30-qubits", qft 30);
          ("RandDense 64q/500", random_density ~seed ~gates:500 ~density:0.5 64);
          ("QAOA-ER 60q", qaoa_erdos_renyi ~seed ~p:1 ~edge_prob:0.1 60);
          ("VQE 16-qubits", vqe 16);
        ]
  | "eagle-trials", true ->
      List.map batch
        [
          ("QFT 6-qubits", qft 6);
          ("RandDense 12q/60", random_density ~seed ~gates:60 ~density:0.5 12);
        ]
  | "eagle-stream", false -> streams ~seed ~gates:8_000 127
  | "eagle-stream", true -> streams ~seed ~gates:150 12
  | _ -> invalid_arg ("unknown workload " ^ name)

(* How often each circuit runs per pass, replica [k] with seed
   [Trials.trial_seed ~base:seed k].  One seed routes a circuit very
   differently from another (GHZ-chain 12 needs 21 to 64 CX on montreal),
   so the short-job workloads average over several seeds per run: with one
   seed, cx_geomean on montreal-small spread 12% across runs. *)
let replicas ~small name =
  match (name, small) with
  | "montreal-small", false -> 3
  | "eagle-stream", false -> 2
  | _ -> 1

(* Batch workloads share one device and set-up computes all its distance
   rows.  Stream jobs build their own device inside the timed job, so the
   lazy BFS rows ([Coupling.dist_row] through [Distmat.hops_lazy]) are
   part of every stream job, as they are of a one-off streaming compile. *)
let make ~workers ~small ~seed name =
  let kind = if String.starts_with ~prefix:"eagle" name then `Eagle else `Montreal in
  let device =
    if name = "eagle-stream" then fun () -> device kind
    else
      let coupling = device kind in
      ignore (Topology.Coupling.distance_matrix coupling);
      fun () -> coupling
  in
  let trials = if name <> "eagle-trials" then 1 else if small then 2 else 4 in
  let replica k =
    let seed = Trials.trial_seed ~base:seed k in
    List.concat_map
      (fun (cname, input) ->
        List.map
          (fun (rname, router) ->
            { label = Printf.sprintf "%s/%s/%d" cname rname seed; router; seed; input })
          routers)
      (circuits ~small ~seed name)
  in
  let jobs = List.concat (List.init (replicas ~small name) replica) in
  { device; trials; workers; jobs = Array.of_list jobs }
