let kron_factor m =
  if Mat.rows m <> 4 || Mat.cols m <> 4 then None
  else begin
    (* Locate the largest entry; it anchors a non-degenerate row/column of
       each factor (m[2a+i][2c+j] = A[a][c] * B[i][j]). *)
    let best = Mat.argmax_abs m in
    let r = best / 4 and c = best mod 4 in
    if Cx.abs (Mat.get m r c) < 1e-12 then None
    else begin
      let a1 = r / 2 and b1 = r mod 2 and a2 = c / 2 and b2 = c mod 2 in
      let b_raw = Mat.gather 2 2 (fun i j -> (4 * ((2 * a1) + i)) + (2 * a2) + j) m in
      let a_raw = Mat.gather 2 2 (fun i j -> (4 * ((2 * i) + b1)) + (2 * j) + b2) m in
      let normalize x =
        let d = Mat.det x in
        if Cx.abs d < 1e-12 then None else Some (Mat.scale Cx.(one / Cx.sqrt d) x)
      in
      match (normalize a_raw, normalize b_raw) with
      | Some a, Some b -> begin
          let prod = Mat.kron a b in
          match Mat.phase_to m prod with
          | Some g ->
              if Mat.frobenius_distance m (Mat.scale g prod) < 1e-6 then Some (g, a, b)
              else None
          | None -> None
        end
      | _ -> None
    end
  end
