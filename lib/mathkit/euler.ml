type zyz = { theta : float; phi : float; lam : float; phase : float }

let rz_mat a = Mat.diag_phases [| -.a /. 2.0; a /. 2.0 |]

let ry_mat t =
  let c = cos (t /. 2.0) and s = sin (t /. 2.0) in
  Mat.of_real 2 2 (Float.Array.of_list [ c; -.s; s; c ])

let rx_mat t =
  let c = Cx.re (cos (t /. 2.0)) and s = Cx.make 0.0 (-.sin (t /. 2.0)) in
  Mat.of_rows [ [ c; s ]; [ s; c ] ]

let u_mat theta phi lam =
  let c = cos (theta /. 2.0) and s = sin (theta /. 2.0) in
  Mat.of_rows
    [
      [ Cx.re c; Cx.(neg (exp_i lam * re s)) ];
      [ Cx.(exp_i phi * re s); Cx.(exp_i (phi +. lam) * re c) ];
    ]

let zyz_to_mat { theta; phi; lam; phase } =
  Mat.scale (Cx.exp_i phase) (Mat.mul (rz_mat phi) (Mat.mul (ry_mat theta) (rz_mat lam)))

let u_angles_of_unitary u =
  if Mat.rows u <> 2 || Mat.cols u <> 2 then invalid_arg "Euler: not 2x2";
  (* Normalize to SU(2). *)
  let s = Cx.sqrt (Mat.det u) in
  let su = Mat.scale Cx.(one / s) u in
  let m00 = Mat.get su 0 0
  and m10 = Mat.get su 1 0
  and m11 = Mat.get su 1 1 in
  let theta = 2.0 *. atan2 (Cx.abs m10) (Cx.abs m00) in
  if Cx.abs m10 < 1e-10 then (theta, 2.0 *. Cx.arg m11, 0.0)
  else if Cx.abs m00 < 1e-10 then (theta, 2.0 *. Cx.arg m10, 0.0)
  else (theta, Cx.arg m11 +. Cx.arg m10, Cx.arg m11 -. Cx.arg m10)

let zyz_of_unitary u =
  let theta, phi, lam = u_angles_of_unitary u in
  (* Recover the global phase by comparing against the reconstruction. *)
  let candidate = { theta; phi; lam; phase = 0.0 } in
  let recon = zyz_to_mat candidate in
  match Mat.phase_to u recon with
  | Some z -> { candidate with phase = Cx.arg z }
  | None ->
      (* Should not happen for unitary input; keep best effort. *)
      { candidate with phase = Cx.arg (Mat.det u) /. 2.0 }

let u_params_of_unitary m =
  let { theta; phi; lam; phase } = zyz_of_unitary m in
  (* e^{i phase} Rz Ry Rz = e^{i (phase - (phi+lam)/2)} U(theta,phi,lam) *)
  (theta, phi, lam, phase -. ((phi +. lam) /. 2.0))

let is_identity_angles ?(eps = 1e-9) (theta, phi, lam) =
  let wrapped a =
    let t = Float.rem a (2.0 *. Float.pi) in
    let t = if t < 0.0 then t +. (2.0 *. Float.pi) else t in
    Float.min t (Float.abs ((2.0 *. Float.pi) -. t))
  in
  wrapped theta <= eps && wrapped (phi +. lam) <= eps
