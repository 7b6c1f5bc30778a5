(* [Weyl.decompose] as it was before its kernel: the [Mat], [Eig] and
   [Kronfactor] calls and the list-sorting [canonicalize], kept verbatim as
   the reference the kernel must reproduce bit for bit. *)

open Mathkit

type t = Qpasses.Weyl.t = {
  phase : float;
  k1l : Mat.t;
  k1r : Mat.t;
  x : float;
  y : float;
  z : float;
  k2l : Mat.t;
  k2r : Mat.t;
}

let pi = Float.pi
let half_pi = pi /. 2.0
let quarter_pi = pi /. 4.0
let magic_basis = Qpasses.Weyl.magic_basis
let magic_dag = Mat.adjoint magic_basis

(* the real and imaginary parts of a matrix, each row-major, as [Eig]
   reads them ([Mat.parts] when [Mat] had it) *)
let parts a =
  let m = Mat.storage a in
  let n = Float.Array.length m / 2 in
  let re = Float.Array.create n and im = Float.Array.create n in
  for k = 0 to n - 1 do
    Float.Array.set re k (Float.Array.get m (2 * k));
    Float.Array.set im k (Float.Array.get m ((2 * k) + 1))
  done;
  (re, im)

(* ---- canonicalization moves (each preserves reconstruct r) ---- *)

let x_mat = Mat.of_real_rows [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ]
let y_mat = Mat.of_rows [ [ Cx.zero; Cx.im (-1.0) ]; [ Cx.im 1.0; Cx.zero ] ]
let z_mat = Mat.of_real_rows [ [ 1.0; 0.0 ]; [ 0.0; -1.0 ] ]

let s_mat = Mat.of_rows [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.i ] ]
let h_mat =
  let s = 1.0 /. sqrt 2.0 in
  Mat.of_real_rows [ [ s; s ]; [ s; -.s ] ]

let sx_mat =
  let a = Cx.make 0.5 0.5 and b = Cx.make 0.5 (-0.5) in
  Mat.of_rows [ [ a; b ]; [ b; a ] ]

let coord_get r = function 0 -> r.x | 1 -> r.y | _ -> r.z
let coord_set r k v =
  match k with 0 -> { r with x = v } | 1 -> { r with y = v } | _ -> { r with z = v }

(* v_k -= s * pi/2, compensated by (sigma_k (x) sigma_k) on the left and a
   global phase bump of s*pi/2 (exp(i pi/2 PP) = i P(x)P). *)
let shift r k s =
  if s = 0 then r
  else begin
    let sigma = match k with 0 -> x_mat | 1 -> y_mat | _ -> z_mat in
    let r = coord_set r k (coord_get r k -. (float_of_int s *. half_pi)) in
    let r = { r with phase = r.phase +. (float_of_int s *. half_pi) } in
    if s mod 2 <> 0 then
      { r with k1l = Mat.mul r.k1l sigma; k1r = Mat.mul r.k1r sigma }
    else r
  end

(* swap coordinates k and l by conjugating N with (v (x) v) *)
let swap r k l =
  if k = l then r
  else begin
    let v =
      match (min k l, max k l) with
      | 0, 1 -> s_mat
      | 0, 2 -> h_mat
      | _ -> sx_mat
    in
    let vd = Mat.adjoint v in
    let a = coord_get r k and b = coord_get r l in
    let r = coord_set (coord_set r k b) l a in
    {
      r with
      k1l = Mat.mul r.k1l vd;
      k1r = Mat.mul r.k1r vd;
      k2l = Mat.mul v r.k2l;
      k2r = Mat.mul v r.k2r;
    }
  end

(* negate the two coordinates OTHER than [spared] by conjugating with
   (sigma_spared (x) I) *)
let negate_pair r spared =
  let sigma = match spared with 0 -> x_mat | 1 -> y_mat | _ -> z_mat in
  let neg k r = coord_set r k (-.coord_get r k) in
  let r = List.fold_right neg (List.filter (( <> ) spared) [ 0; 1; 2 ]) r in
  { r with k1l = Mat.mul r.k1l sigma; k2l = Mat.mul sigma r.k2l }

let canonicalize r =
  (* 1. bring every coordinate into [-pi/4, pi/4] *)
  let reduce r k =
    let v = coord_get r k in
    let s = Float.round (v /. half_pi) in
    shift r k (int_of_float s)
  in
  let r = List.fold_left reduce r [ 0; 1; 2 ] in
  (* 2. sort by absolute value, descending *)
  let r =
    let by_abs r =
      let vs = [ (Float.abs r.x, 0); (Float.abs r.y, 1); (Float.abs r.z, 2) ] in
      List.sort (fun (a, _) (b, _) -> compare b a) vs
    in
    match by_abs r with
    | [ (_, i0); (_, i1); (_, _) ] ->
        (* selection sort on three elements via swaps *)
        let r = if i0 = 0 then r else swap r 0 i0 in
        (* recompute position of the second-largest after the first swap *)
        let vs = [ (Float.abs r.y, 1); (Float.abs r.z, 2) ] in
        let _, j = List.hd (List.sort (fun (a, _) (b, _) -> compare b a) vs) in
        let r = if j = 1 then r else swap r 1 j in
        ignore i1;
        r
    | _ -> assert false
  in
  (* 3. make x and y non-negative *)
  let r = if r.x < 0.0 then negate_pair r 1 else r in
  let r = if r.y < 0.0 then negate_pair r 0 else r in
  (* 4. boundary identification: at x = pi/4 the classes (x,y,z) and
     (x,y,-z) coincide; prefer z >= 0 there *)
  let r =
    if r.z < -1e-12 && Float.abs (r.x -. quarter_pi) < 1e-9 then begin
      (* shift x by pi/2 (x -> -pi/4), then negate (x, z) *)
      let r = shift r 0 1 in
      negate_pair r 1
    end
    else r
  in
  r

(* ---- eigenstructure of m^T m ---- *)

let decompose u =
  if Mat.rows u <> 4 || Mat.cols u <> 4 || not (Mat.is_unitary ~eps:1e-7 u) then
    invalid_arg "Weyl.decompose: input must be a 4x4 unitary";
  let det = Mat.det u in
  let phase0 = Cx.arg det /. 4.0 in
  let su = Mat.scale (Cx.exp_i (-.phase0)) u in
  let m = Mat.mul magic_dag (Mat.mul su magic_basis) in
  let m2 = Mat.mul (Mat.transpose m) m in
  let re, im = parts m2 in
  let p_real = Eig.simultaneous_diagonalize re im in
  (* determinant of the real orthogonal p: fix to +1 by flipping a column *)
  let detp = (Mat.det (Mat.of_real 4 4 p_real)).Complex.re in
  if detp < 0.0 then
    for i = 0 to 3 do
      Float.Array.set p_real (4 * i) (-.Float.Array.get p_real (4 * i))
    done;
  let p = Mat.of_real 4 4 p_real in
  let pt = Mat.transpose p in
  let d = Mat.mul pt (Mat.mul m2 p) in
  let theta = Array.init 4 (fun j -> Cx.arg (Mat.get d j j) /. 2.0) in
  (* branch fix: product of the d_j must be +1 so that k1 lands in SO(4) *)
  let total = theta.(0) +. theta.(1) +. theta.(2) +. theta.(3) in
  if Cx.abs Cx.(exp_i total - one) > 0.5 then theta.(0) <- theta.(0) +. pi;
  let a_inv = Mat.diag_phases (Array.map (fun t -> -.t) theta) in
  let k1 = Mat.mul m (Mat.mul p a_inv) in
  let k2 = pt in
  let g = (theta.(0) +. theta.(1) +. theta.(2) +. theta.(3)) /. 4.0 in
  let x = (theta.(0) +. theta.(1) -. theta.(2) -. theta.(3)) /. 4.0 in
  let y = (-.theta.(0) +. theta.(1) -. theta.(2) +. theta.(3)) /. 4.0 in
  let z = (theta.(0) -. theta.(1) -. theta.(2) +. theta.(3)) /. 4.0 in
  let left = Mat.mul magic_basis (Mat.mul k1 magic_dag) in
  let right = Mat.mul magic_basis (Mat.mul k2 magic_dag) in
  let fac what mtx =
    match Kronfactor.kron_factor mtx with
    | Some (gph, a, b) -> (Cx.arg gph, a, b)
    | None -> invalid_arg ("Weyl.decompose: " ^ what ^ " factor is not local")
  in
  let gl, k1l, k1r = fac "left" left in
  let gr, k2l, k2r = fac "right" right in
  canonicalize
    { phase = phase0 +. g +. gl +. gr; k1l; k1r; x; y; z; k2l; k2r }

