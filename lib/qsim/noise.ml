open Mathkit
open Qgate

type t = {
  gate_err : Gate.t -> int list -> float;
  ro_err : int -> float;
}

let of_calibration cal =
  let gate_err (g : Gate.t) qs =
    match (g, qs) with
    | Gate.CX, [ a; b ] -> Topology.Calibration.cx_error cal a b
    | (Gate.Barrier _ | Gate.Measure | Gate.Id), _ -> 0.0
    | _, [ q ] -> Topology.Calibration.sq_error cal q
    | _, qs ->
        (* multi-qubit gates: charge a cx-like error per touched pair *)
        float_of_int (List.length qs - 1) *. 0.01
  in
  { gate_err; ro_err = (fun q -> Topology.Calibration.readout_error cal q) }

let trivial ~n =
  ignore n;
  { gate_err = (fun _ _ -> 0.0); ro_err = (fun _ -> 0.0) }

let remap t f =
  {
    gate_err = (fun g qs -> t.gate_err g (List.map f qs));
    ro_err = (fun q -> t.ro_err (f q));
  }

let gate_error t g qs = t.gate_err g qs
let readout_error t q = t.ro_err q

let esp t c ~measured =
  let gate_part =
    List.fold_left
      (fun acc (i : Qcircuit.Circuit.instr) -> acc *. (1.0 -. t.gate_err i.gate i.qubits))
      1.0 (Qcircuit.Circuit.instrs c)
  in
  List.fold_left (fun acc q -> acc *. (1.0 -. t.ro_err q)) gate_part measured

let paulis = [| Gate.X; Gate.Y; Gate.Z |]

(* simulate with a Pauli injected after each faulty instruction *)
let simulate_with_errors c faulty rng =
  let s = State.create (Qcircuit.Circuit.n_qubits c) in
  List.iteri
    (fun idx (i : Qcircuit.Circuit.instr) ->
      (match i.gate with
      | Gate.Measure | Gate.Barrier _ -> ()
      | g -> State.apply_gate s g i.qubits);
      if List.mem idx faulty then
        List.iter
          (fun q ->
            (* uniformly random Pauli, identity excluded on at least one
               qubit is not enforced: a global identity draw is harmless *)
            if Rng.int rng 4 > 0 then
              State.apply_gate s paulis.(Rng.int rng 3) [ q ])
          i.qubits)
    (Qcircuit.Circuit.instrs c);
  s

let apply_readout t n rng outcome =
  let out = ref outcome in
  for q = 0 to n - 1 do
    if Rng.float rng 1.0 < t.ro_err q then out := !out lxor (1 lsl (n - 1 - q))
  done;
  !out

(* distinct noisy re-simulations per [sample] call; later error shots
   cycle through the cached noisy results *)
let max_error_sims = 400

let sample t c ~shots rng =
  let n = Qcircuit.Circuit.n_qubits c in
  let instrs = Array.of_list (Qcircuit.Circuit.instrs c) in
  let err = Array.map (fun (i : Qcircuit.Circuit.instr) -> t.gate_err i.gate i.qubits) instrs in
  let clean = State.create n in
  State.apply_circuit clean c;
  let error_cache : State.t list ref = ref [] in
  let n_sims = ref 0 in
  let draw_faulty () =
    let f = ref [] in
    Array.iteri (fun idx e -> if e > 0.0 && Rng.float rng 1.0 < e then f := idx :: !f) err;
    !f
  in
  Array.init shots (fun _ ->
      let faulty = draw_faulty () in
      let state =
        if faulty = [] then clean
        else if !n_sims < max_error_sims then begin
          let s = simulate_with_errors c faulty rng in
          incr n_sims;
          error_cache := s :: !error_cache;
          s
        end
        else begin
          match !error_cache with
          | [] -> clean
          | cache -> List.nth cache (Rng.int rng (List.length cache))
        end
      in
      apply_readout t n rng (State.sample state rng))
