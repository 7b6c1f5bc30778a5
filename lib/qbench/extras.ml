open Qgate

(* random near-3-regular graph: 3n/2 distinct edges sampled uniformly *)
let random_graph rng n =
  let wanted = 3 * n / 2 in
  let edges = Hashtbl.create 32 in
  let guard = ref 0 in
  while Hashtbl.length edges < wanted && !guard < 100 * wanted do
    incr guard;
    let a = Mathkit.Rng.int rng n in
    let b = Mathkit.Rng.int rng n in
    if a <> b then Hashtbl.replace edges (min a b, max a b) ()
  done;
  Hashtbl.fold (fun k () acc -> k :: acc) edges [] |> List.sort compare

let qaoa_maxcut ?(p = 2) ?(seed = 7) n =
  let rng = Mathkit.Rng.create seed in
  let edges = random_graph rng n in
  let b = Qcircuit.Circuit.Builder.create n in
  for q = 0 to n - 1 do
    Qcircuit.Circuit.Builder.add b Gate.H [ q ]
  done;
  for _ = 1 to p do
    let gamma = Mathkit.Rng.float rng Float.pi in
    let beta = Mathkit.Rng.float rng Float.pi in
    List.iter
      (fun (u, v) -> Qcircuit.Circuit.Builder.add b (Gate.RZZ gamma) [ u; v ])
      edges;
    for q = 0 to n - 1 do
      Qcircuit.Circuit.Builder.add b (Gate.RX (2.0 *. beta)) [ q ]
    done
  done;
  Qcircuit.Circuit.Builder.circuit b

let w_state n =
  if n < 2 then invalid_arg "Extras.w_state: need at least 2 qubits";
  let b = Qcircuit.Circuit.Builder.create n in
  (* standard cascade: start from |10...0>, distribute amplitude with
     controlled rotations, then CX to shift the excitation *)
  Qcircuit.Circuit.Builder.add b Gate.X [ 0 ];
  for k = 0 to n - 2 do
    let remaining = n - k in
    let theta = 2.0 *. acos (sqrt (1.0 /. float_of_int remaining)) in
    Qcircuit.Circuit.Builder.add b (Gate.CRY theta) [ k; k + 1 ];
    Qcircuit.Circuit.Builder.add b Gate.CX [ k + 1; k ]
  done;
  Qcircuit.Circuit.Builder.circuit b

let hidden_weight n =
  let b = Qcircuit.Circuit.Builder.create n in
  for q = 0 to n - 1 do
    Qcircuit.Circuit.Builder.add b Gate.H [ q ]
  done;
  for round = 1 to 3 do
    for q = 0 to n - 1 do
      let t = (q + round) mod n in
      if t <> q then Qcircuit.Circuit.Builder.add b Gate.CX [ q; t ];
      Qcircuit.Circuit.Builder.add b Gate.T [ t ]
    done
  done;
  for q = 0 to n - 1 do
    Qcircuit.Circuit.Builder.add b Gate.H [ q ]
  done;
  Qcircuit.Circuit.Builder.circuit b

let extended_suite =
  Suite.paper_suite
  @ [
      {
        Suite.name = "GHZ 12-qubits";
        n_qubits = 12;
        build = (fun () -> Generators.ghz_chain 12);
        heavy = false;
        noise_subset = false;
      };
      {
        Suite.name = "QAOA 10-qubits";
        n_qubits = 10;
        build = (fun () -> qaoa_maxcut 10);
        heavy = false;
        noise_subset = false;
      };
      {
        Suite.name = "W-state 8-qubits";
        n_qubits = 8;
        build = (fun () -> w_state 8);
        heavy = false;
        noise_subset = false;
      };
      {
        Suite.name = "HiddenWeight 9-qubits";
        n_qubits = 9;
        build = (fun () -> hidden_weight 9);
        heavy = false;
        noise_subset = false;
      };
    ]
