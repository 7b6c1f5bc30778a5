open Mathkit
open Qgate

let pi = Float.pi

let ops_unitary n ops =
  List.fold_left
    (fun acc (g, qs) ->
      Mat.mul (Qcircuit.Circuit.embed ~n (Unitary.of_gate g) qs) acc)
    (Mat.identity (1 lsl n))
    ops

let one_qubit_ops m q =
  let theta, phi, lam, _ = Euler.u_params_of_unitary m in
  if Euler.is_identity_angles ~eps:1e-10 (theta, phi, lam) then []
  else [ (Gate.U (theta, phi, lam), [ q ]) ]

(* Core circuits: entangling skeletons whose canonical coordinates equal the
   target's; the single-qubit dressing is recovered by a second KAK run
   (verified in tests/two_qubit synthesis roundtrip). *)
let core_for_class (x, y, z) = function
  | 1 -> [ (Gate.CX, [ 0; 1 ]) ]
  | 2 ->
      [
        (Gate.CX, [ 0; 1 ]);
        (Gate.RX (-2.0 *. x), [ 0 ]);
        (Gate.RZ (-2.0 *. y), [ 1 ]);
        (Gate.CX, [ 0; 1 ]);
      ]
  | 3 ->
      (* Vatan-Williams style: CX(1,0) . (Rz(t1) (x) Ry(t2)) . CX(0,1)
         . (I (x) Ry(t3)) . CX(1,0), with t1 = pi/2 + 2z, t2 = pi/2 - 2x,
         t3 = pi/2 - 2y (matrix order; emitted below in circuit order). *)
      let t1 = (pi /. 2.0) +. (2.0 *. z)
      and t2 = (pi /. 2.0) -. (2.0 *. x)
      and t3 = (pi /. 2.0) -. (2.0 *. y) in
      [
        (Gate.CX, [ 1; 0 ]);
        (Gate.RY t3, [ 1 ]);
        (Gate.CX, [ 0; 1 ]);
        (Gate.RZ t1, [ 0 ]);
        (Gate.RY t2, [ 1 ]);
        (Gate.CX, [ 1; 0 ]);
      ]
  | k -> invalid_arg (Printf.sprintf "Synth2q.core_for_class: %d" k)

let classify (x, y, z) =
  let eps = 1e-8 in
  let near a b = Float.abs (a -. b) < eps in
  if near x 0.0 && near y 0.0 && near z 0.0 then 0
  else if near x (pi /. 4.0) && near y 0.0 && near z 0.0 then 1
  else if near z 0.0 then 2
  else 3

let c_kak = Qobs.counter "synth2q.kak_decompositions"

let synthesize u =
  Qobs.incr c_kak;
  let r = Weyl.decompose u in
  let cls = classify (r.x, r.y, r.z) in
  if cls = 0 then
    one_qubit_ops (Mat.mul r.k1l r.k2l) 0 @ one_qubit_ops (Mat.mul r.k1r r.k2r) 1
  else begin
    let core = core_for_class (r.x, r.y, r.z) cls in
    let v = ops_unitary 2 core in
    let rv = Weyl.decompose v in
    let close a b = Float.abs (a -. b) < 1e-6 in
    if not (close r.x rv.x && close r.y rv.y && close r.z rv.z) then
      invalid_arg
        (Printf.sprintf
           "Synth2q.synthesize: core mismatch (%.9f %.9f %.9f) vs (%.9f %.9f %.9f)"
           r.x r.y r.z rv.x rv.y rv.z);
    (* u = e^{i(phase_u - phase_v)} (k1 . c1^dag) v (c2^dag . k2) *)
    let left_l = Mat.mul r.k1l (Mat.adjoint rv.k1l) in
    let left_r = Mat.mul r.k1r (Mat.adjoint rv.k1r) in
    let right_l = Mat.mul (Mat.adjoint rv.k2l) r.k2l in
    let right_r = Mat.mul (Mat.adjoint rv.k2r) r.k2r in
    one_qubit_ops right_l 0 @ one_qubit_ops right_r 1 @ core
    @ one_qubit_ops left_l 0 @ one_qubit_ops left_r 1
  end
