open Mathkit
open Qgate

type mode = U_gate | Zsx

let two_pi = 2.0 *. Float.pi

let norm_angle a =
  (* wrap into (-pi, pi] *)
  let a = Float.rem a two_pi in
  if a > Float.pi then a -. two_pi else if a <= -.Float.pi then a +. two_pi else a

let is_zero_angle a = Float.abs (norm_angle a) < 1e-10

(* Circuit order: first-applied gate first.
   U(theta,phi,lam) ~ rz(lam) . sx . rz(theta+pi) . sx . rz(phi+pi) read
   left-to-right as a circuit; one-sx and zero-sx special cases below. *)
let zsx_ops theta phi lam =
  let theta_n = norm_angle theta in
  let rz a = if is_zero_angle a then [] else [ Gate.RZ (norm_angle a) ] in
  if Float.abs theta_n < 1e-10 then rz (phi +. lam)
  else if Float.abs (theta_n -. (Float.pi /. 2.0)) < 1e-10 then
    rz (lam -. (Float.pi /. 2.0)) @ [ Gate.SX ] @ rz (phi +. (Float.pi /. 2.0))
  else rz lam @ [ Gate.SX ] @ rz (theta +. Float.pi) @ [ Gate.SX ] @ rz (phi +. Float.pi)

let c_runs = Qobs.counter "optimize_1q.runs"
let c_synthesized = Qobs.counter "optimize_1q.runs_synthesized"

(* the gates the run [first :: rest] becomes, both in circuit order; the
   product keeps the multiplication order the output's bits depend on *)
let synthesize mode first rest =
  let product =
    List.fold_left (fun acc g -> Mat.mul (Unitary.of_gate g) acc) (Unitary.of_gate first) rest
  in
  let theta, phi, lam = Euler.u_angles_of_unitary product in
  if Euler.is_identity_angles ~eps:1e-10 (theta, phi, lam) then []
  else match mode with U_gate -> [ Gate.U (theta, phi, lam) ] | Zsx -> zsx_ops theta phi lam

let run mode c =
  let n = Qcircuit.Circuit.n_qubits c in
  (* each wire's pending run, last-applied gate first *)
  let pending = Array.make (max n 1) [] in
  (* a run's output is a function of its gates' exact signatures, so equal
     keys get equal outputs; the table lives for this call only *)
  let memo = Hashtbl.create 256 and key = Buffer.create 64 in
  let out = ref [] in
  let flush q =
    match List.rev pending.(q) with
    | [] -> ()
    | first :: rest as run ->
        pending.(q) <- [];
        Qobs.incr c_runs;
        Buffer.clear key;
        List.iter (Gate.add_signature key) run;
        let k = Buffer.contents key in
        let gates =
          match Hashtbl.find_opt memo k with
          | Some gates -> gates
          | None ->
              Qobs.incr c_synthesized;
              let gates = synthesize mode first rest in
              Hashtbl.add memo k gates;
              gates
        in
        List.iter (fun g -> out := { Qcircuit.Circuit.gate = g; qubits = [ q ] } :: !out) gates
  in
  let visit (i : Qcircuit.Circuit.instr) =
    match i.gate with
    | g when Gate.is_one_qubit g && g <> Gate.Id ->
        let q = List.hd i.qubits in
        pending.(q) <- g :: pending.(q)
    | Gate.Id -> ()
    | _ ->
        List.iter flush i.qubits;
        out := i :: !out
  in
  List.iter visit (Qcircuit.Circuit.instrs c);
  for q = 0 to n - 1 do
    flush q
  done;
  Qcircuit.Circuit.create n (List.rev !out)
