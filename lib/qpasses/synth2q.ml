open Mathkit
open Qgate

let pi = Float.pi

let one_qubit_ops m q =
  let theta, phi, lam = Euler.u_angles_of_unitary m in
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

let core_length = function
  | 0 -> 0
  | 1 -> 1
  | 2 -> 4
  | 3 -> 6
  | k -> invalid_arg (Printf.sprintf "Synth2q.core_length: %d" k)

let c_kak = Qobs.counter "synth2q.kak_decompositions"

let kak u =
  Qobs.incr c_kak;
  let r = Weyl.decompose u in
  (r, Weyl.cnot_class r)

(* The class-1 core is the constant CX(0,1), so its decomposition and the
   adjoints of its local factors are computed once, here.  Not a [Lazy]:
   forcing one from several domains at once raises [Lazy.Undefined]. *)
let cx_core = core_for_class (pi /. 4.0, 0.0, 0.0) 1
let cx_core_kak = Weyl.decompose (Blocks.unitary ~zero:0 fst snd cx_core)

(* the adjoints of a core's local factors, as the dressing uses them *)
let adjoints (rv : Weyl.t) =
  (Mat.adjoint rv.k1l, Mat.adjoint rv.k1r, Mat.adjoint rv.k2l, Mat.adjoint rv.k2r)

let cx_core_adjoints = adjoints cx_core_kak

let of_kak ((r : Weyl.t), cls) =
  if cls = 0 then
    one_qubit_ops (Mat.mul r.k1l r.k2l) 0 @ one_qubit_ops (Mat.mul r.k1r r.k2r) 1
  else begin
    let core, (rv : Weyl.t), (k1l_dag, k1r_dag, k2l_dag, k2r_dag) =
      if cls = 1 then (cx_core, cx_core_kak, cx_core_adjoints)
      else
        let core = core_for_class (r.x, r.y, r.z) cls in
        let rv = Weyl.decompose (Blocks.unitary ~zero:0 fst snd core) in
        (core, rv, adjoints rv)
    in
    let close a b = Float.abs (a -. b) < 1e-6 in
    if not (close r.x rv.x && close r.y rv.y && close r.z rv.z) then
      invalid_arg
        (Printf.sprintf
           "Synth2q.of_kak: core mismatch (%.9f %.9f %.9f) vs (%.9f %.9f %.9f)"
           r.x r.y r.z rv.x rv.y rv.z);
    (* u = e^{i(phase_u - phase_v)} (k1 . c1^dag) v (c2^dag . k2) *)
    let left_l = Mat.mul r.k1l k1l_dag in
    let left_r = Mat.mul r.k1r k1r_dag in
    let right_l = Mat.mul k2l_dag r.k2l in
    let right_r = Mat.mul k2r_dag r.k2r in
    one_qubit_ops right_l 0 @ one_qubit_ops right_r 1 @ core
    @ one_qubit_ops left_l 0 @ one_qubit_ops left_r 1
  end

let synthesize u = of_kak (kak u)
