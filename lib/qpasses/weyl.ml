open Mathkit

type t = {
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

let magic_basis =
  let s = 1.0 /. sqrt 2.0 in
  Mat.of_rows
    [
      [ Cx.re s; Cx.zero; Cx.zero; Cx.im s ];
      [ Cx.zero; Cx.im s; Cx.re s; Cx.zero ];
      [ Cx.zero; Cx.im s; Cx.re (-.s); Cx.zero ];
      [ Cx.re s; Cx.zero; Cx.zero; Cx.im (-.s) ];
    ]

let magic_dag = Mat.adjoint magic_basis

(* Diagonal signatures of XX, YY, ZZ in the magic basis (verified against a
   direct computation in the test suite). *)
let sig_xx = [| 1.0; 1.0; -1.0; -1.0 |]
let sig_yy = [| -1.0; 1.0; -1.0; 1.0 |]
let sig_zz = [| 1.0; -1.0; -1.0; 1.0 |]

let canonical_gate x y z =
  let d =
    Mat.diag_phases
      (Array.init 4 (fun i -> (x *. sig_xx.(i)) +. (y *. sig_yy.(i)) +. (z *. sig_zz.(i))))
  in
  Mat.mul magic_basis (Mat.mul d magic_dag)

let reconstruct r =
  let locals1 = Mat.kron r.k1l r.k1r and locals2 = Mat.kron r.k2l r.k2r in
  Mat.scale (Cx.exp_i r.phase)
    (Mat.mul locals1 (Mat.mul (canonical_gate r.x r.y r.z) locals2))

(* ---- the constant 2x2 matrices of the canonicalization moves ---- *)

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

(* sigma_k for coordinate k *)
let sigma = Array.map Mat.storage [| x_mat; y_mat; z_mat |]

(* the conjugation [v] that swaps coordinates k < l, at [k + l - 1], and
   its adjoint *)
let swap_v = Array.map Mat.storage [| s_mat; h_mat; sx_mat |]
let swap_vd = Array.map (fun v -> Mat.storage (Mat.adjoint v)) [| s_mat; h_mat; sx_mat |]
let magic_e = Mat.storage magic_basis
let magic_edag = Mat.storage magic_dag

(* ---- the decomposition kernel ----

   [decompose] runs the KAK construction below as one pass over a per-domain
   float workspace [w]: every matrix is a region of [w] (complex entries as
   interleaved (re, im) pairs, the layout of [Mat]; real ones row-major), and
   every scalar that leaves a helper is a slot of [w], so no float is boxed.
   Each step performs the float operations of the [Mat], [Eig], [Kronfactor]
   and [Complex] code it replaced, in the same order, so every result is
   bit-for-bit that code's:
   - products skip a left entry whose parts are both exactly zero, and add
     each term to the running entry as [cur + (a * b)], as [Mat.mul];
   - determinants are [Mat.det]'s LU, with its [Float.hypot] pivot test and
     [Complex.div] written out;
   - the Jacobi sweeps, the sort of the eigenvalues ([Array.sort]'s ternary
     heap sort, which is not stable: a tie's order is its) and the
     re-diagonalization of degenerate eigenspaces are [Eig]'s;
   - [kron_factor] is [Kronfactor.kron_factor] with [Mat.argmax_abs],
     [Mat.phase_to] and [Complex.sqrt] written out;
   - [canonicalize]'s moves are [Mat.mul]s of the 2x2 factors by the same
     constant matrices, in the same order, and its sort keeps [List.sort]'s
     tie rule (the lower coordinate first). *)

(* complex 4x4 regions (32 floats) *)
let r_lu = 0
let r_t = 32
let r_m = 64
let r_m2 = 96
let r_p = 128
let r_mp = 160
let r_ainv = 192
let r_pa = 224
let r_k1 = 256
let r_pt = 288
let r_left = 320
let r_right = 352
let r_prod = 384

(* real 4x4 regions (16 floats) *)
let r_a = 416
let r_v = 432
let r_b = 448
let r_res = 464
let r_tmp = 480
let r_bp = 496
let r_blk = 512
let r_q = 528
let r_cols = 544

(* complex 2x2 regions (8 floats): the factors k1l, k1r, k2l, k2r and a
   product *)
let r_k1l = 560
let r_k1r = 568
let r_k2l = 576
let r_k2r = 584
let r_t2 = 592

(* scalar slots *)
let s_det = 600 (* re, im *)
let s_theta = 602 (* four *)
let s_gphase = 606
let s_x = 607 (* x, y, z at s_x + k *)
let s_phase = 610
let ws_size = 611

type ws = { w : Float.Array.t; order : int array }

let ws_key =
  Domain.DLS.new_key (fun () -> { w = Float.Array.make ws_size 0.0; order = [| 0; 1; 2; 3 |] })

(* Unchecked: every index is a region's constant offset plus an index
   below the region's size, into the workspace, the 32 floats of a 4x4
   [Mat.t] (the input is checked to be 4x4 first) or a constant's 8 or 32 *)
let get = Float.Array.unsafe_get
let set = Float.Array.unsafe_set

(* The 4x4 complex product [a(ao) * b(bo)] into [o(oo)], which overlaps
   neither, as [Mat.mul]: each entry sums its terms over k ascending from
   [+0], here in registers, skipping a left entry whose parts are both
   exactly zero *)
let mul4 (a : Float.Array.t) ao (b : Float.Array.t) bo (o : Float.Array.t) oo =
  for i = 0 to 3 do
    let p = ao + (8 * i) in
    let a0r = get a p and a0i = get a (p + 1) in
    let a1r = get a (p + 2) and a1i = get a (p + 3) in
    let a2r = get a (p + 4) and a2i = get a (p + 5) in
    let a3r = get a (p + 6) and a3i = get a (p + 7) in
    let n0 = not (Float.abs a0r <= 0.0 && Float.abs a0i <= 0.0) in
    let n1 = not (Float.abs a1r <= 0.0 && Float.abs a1i <= 0.0) in
    let n2 = not (Float.abs a2r <= 0.0 && Float.abs a2i <= 0.0) in
    let n3 = not (Float.abs a3r <= 0.0 && Float.abs a3i <= 0.0) in
    for j = 0 to 3 do
      let q = bo + (2 * j) in
      let re = ref 0.0 and im = ref 0.0 in
      if n0 then begin
        let bre = get b q and bim = get b (q + 1) in
        re := !re +. ((a0r *. bre) -. (a0i *. bim));
        im := !im +. ((a0r *. bim) +. (a0i *. bre))
      end;
      if n1 then begin
        let bre = get b (q + 8) and bim = get b (q + 9) in
        re := !re +. ((a1r *. bre) -. (a1i *. bim));
        im := !im +. ((a1r *. bim) +. (a1i *. bre))
      end;
      if n2 then begin
        let bre = get b (q + 16) and bim = get b (q + 17) in
        re := !re +. ((a2r *. bre) -. (a2i *. bim));
        im := !im +. ((a2r *. bim) +. (a2i *. bre))
      end;
      if n3 then begin
        let bre = get b (q + 24) and bim = get b (q + 25) in
        re := !re +. ((a3r *. bre) -. (a3i *. bim));
        im := !im +. ((a3r *. bim) +. (a3i *. bre))
      end;
      set o (oo + (8 * i) + (2 * j)) !re;
      set o (oo + (8 * i) + (2 * j) + 1) !im
    done
  done

(* [mul4] for 2x2 matrices *)
let mul22 (a : Float.Array.t) ao (b : Float.Array.t) bo (o : Float.Array.t) oo =
  for i = 0 to 1 do
    let p = ao + (4 * i) in
    let a0r = get a p and a0i = get a (p + 1) and a1r = get a (p + 2) and a1i = get a (p + 3) in
    let n0 = not (Float.abs a0r <= 0.0 && Float.abs a0i <= 0.0) in
    let n1 = not (Float.abs a1r <= 0.0 && Float.abs a1i <= 0.0) in
    for j = 0 to 1 do
      let q = bo + (2 * j) in
      let re = ref 0.0 and im = ref 0.0 in
      if n0 then begin
        let bre = get b q and bim = get b (q + 1) in
        re := !re +. ((a0r *. bre) -. (a0i *. bim));
        im := !im +. ((a0r *. bim) +. (a0i *. bre))
      end;
      if n1 then begin
        let bre = get b (q + 4) and bim = get b (q + 5) in
        re := !re +. ((a1r *. bre) -. (a1i *. bim));
        im := !im +. ((a1r *. bim) +. (a1i *. bre))
      end;
      set o (oo + (4 * i) + (2 * j)) !re;
      set o (oo + (4 * i) + (2 * j) + 1) !im
    done
  done

(* the 2x2 region [r] of [w] times the constant [c] ([~right]), or [c]
   times it *)
let mul2 w r c ~right =
  if right then mul22 w r c 0 w r_t2 else mul22 c 0 w r w r_t2;
  Float.Array.blit w r_t2 w r 8

let at n i j = r_lu + (2 * ((i * n) + j))

(* [Mat.det] of the [n x n] complex matrix [src(so)], into [s_det] *)
let det w n (src : Float.Array.t) so =
  Float.Array.blit src so w r_lu (2 * n * n);
  let sign = ref 1.0 and rre = ref 1.0 and rim = ref 0.0 in
  let col = ref 0 in
  while !col < n do
    let c = !col in
    (* each modulus once: the pivot's is the one it was found with *)
    let pivot = ref c and pivot_abs = ref (Float.hypot (get w (at n c c)) (get w (at n c c + 1))) in
    for i = c + 1 to n - 1 do
      let v = Float.hypot (get w (at n i c)) (get w (at n i c + 1)) in
      if v > !pivot_abs then begin
        pivot := i;
        pivot_abs := v
      end
    done;
    if !pivot_abs < 1e-300 then begin
      rre := 0.0;
      rim := 0.0;
      col := n
    end
    else begin
      if !pivot <> c then begin
        sign := -. !sign;
        for x = at n c 0 to at n c (n - 1) + 1 do
          let y = x + at n !pivot 0 - at n c 0 in
          let tmp = get w x in
          set w x (get w y);
          set w y tmp
        done
      end;
      let dre = get w (at n c c) and dim = get w (at n c c + 1) in
      let re = (!rre *. dre) -. (!rim *. dim) and im = (!rre *. dim) +. (!rim *. dre) in
      rre := re;
      rim := im;
      (* Complex.div (entry i c) d *)
      let big = Float.abs dre >= Float.abs dim in
      let r = if big then dim /. dre else dre /. dim in
      let dd = if big then dre +. (r *. dim) else dim +. (r *. dre) in
      for i = c + 1 to n - 1 do
        let xre = get w (at n i c) and xim = get w (at n i c + 1) in
        let fre = if big then (xre +. (r *. xim)) /. dd else ((r *. xre) +. xim) /. dd in
        let fim = if big then (xim -. (r *. xre)) /. dd else ((r *. xim) -. xre) /. dd in
        for j = c to n - 1 do
          let p = at n c j and s = at n i j in
          let pre = get w p and pim = get w (p + 1) in
          set w s (get w s -. ((fre *. pre) -. (fim *. pim)));
          set w (s + 1) (get w (s + 1) -. ((fre *. pim) +. (fim *. pre)))
        done
      done;
      incr col
    end
  done;
  set w s_det (!sign *. !rre);
  set w (s_det + 1) (!sign *. !rim)

(* One Jacobi rotation zeroing a(p,q) of the real [n x n] region [ao],
   accumulated into [vo], as [Eig] *)
let rotate w n ao vo p q =
  let apq = get w (ao + (p * n) + q) in
  if Float.abs apq > 1e-300 then begin
    let app = get w (ao + (p * n) + p) and aqq = get w (ao + (q * n) + q) in
    let theta = (aqq -. app) /. (2.0 *. apq) in
    let sg = if theta >= 0.0 then 1.0 else -1.0 in
    let t = sg /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0)) in
    let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
    let s = t *. c in
    for k = 0 to n - 1 do
      let kp = ao + (k * n) + p and kq = ao + (k * n) + q in
      let akp = get w kp and akq = get w kq in
      set w kp ((c *. akp) -. (s *. akq));
      set w kq ((s *. akp) +. (c *. akq))
    done;
    for k = 0 to n - 1 do
      let pk = ao + (p * n) + k and qk = ao + (q * n) + k in
      let apk = get w pk and aqk = get w qk in
      set w pk ((c *. apk) -. (s *. aqk));
      set w qk ((s *. apk) +. (c *. aqk))
    done;
    for k = 0 to n - 1 do
      let kp = vo + (k * n) + p and kq = vo + (k * n) + q in
      let vkp = get w kp and vkq = get w kq in
      set w kp ((c *. vkp) -. (s *. vkq));
      set w kq ((s *. vkp) +. (c *. vkq))
    done
  end

(* [Eig.jacobi] in place: region [ao] ends holding the eigenvalues on its
   diagonal, [vo] the eigenvectors as columns *)
let jacobi w n ao vo =
  Float.Array.fill w vo (n * n) 0.0;
  for i = 0 to n - 1 do
    set w (vo + (i * n) + i) 1.0
  done;
  let sweeps = ref 0 and go = ref true in
  while !go do
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let x = get w (ao + (i * n) + j) in
          acc := !acc +. (x *. x)
        end
      done
    done;
    if !sweeps < 100 && sqrt !acc > 1e-13 then begin
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          rotate w n ao vo p q
        done
      done;
      incr sweeps
    end
    else go := false
  done

(* [Array.sort] of [0; 1; 2; 3] by the eigenvalues on [r_a]'s diagonal:
   its ternary heap sort for four elements, step for step *)
let cmp w i j = Float.compare (get w (r_a + (5 * i))) (get w (r_a + (5 * j)))

let sort_order w o =
  o.(0) <- 0;
  o.(1) <- 1;
  o.(2) <- 2;
  o.(3) <- 3;
  (* heapify: trickle the root down *)
  let j = if cmp w o.(1) o.(2) < 0 then 2 else 1 in
  let j = if cmp w o.(j) o.(3) < 0 then 3 else j in
  if cmp w o.(j) o.(0) > 0 then begin
    let e = o.(0) in
    o.(0) <- o.(j);
    o.(j) <- e
  end;
  (* move the maximum to slot 3, then to slot 2; each time the hole at
     the root is filled from its larger child and the old last element
     trickles up into that child's place *)
  let e = o.(3) in
  o.(3) <- o.(0);
  let j = if cmp w o.(1) o.(2) < 0 then 2 else 1 in
  o.(0) <- o.(j);
  if cmp w o.(0) e < 0 then begin
    o.(j) <- o.(0);
    o.(0) <- e
  end
  else o.(j) <- e;
  let e = o.(2) in
  o.(2) <- o.(0);
  o.(0) <- o.(1);
  if cmp w o.(0) e < 0 then begin
    o.(1) <- o.(0);
    o.(0) <- e
  end
  else o.(1) <- e;
  let e = o.(1) in
  o.(1) <- o.(0);
  o.(0) <- e

(* [Eig.simultaneous_diagonalize] of the real parts [r_a] (consumed) and
   imaginary parts [r_b] of [m2]: the orthogonal [p] lands in [r_res] *)
let simultaneous_diagonalize { w; order } =
  jacobi w 4 r_a r_v;
  sort_order w order;
  for i = 0 to 3 do
    for j = 0 to 3 do
      set w (r_res + (4 * i) + j) (get w (r_v + (4 * i) + order.(j)))
    done
  done;
  (* each group of eigenvalues within 1e-7 of its first with more than one
     member: diagonalize its block of b' = p^T b p (p as sorted, before
     any block moved it, so b' is formed at the first such group) *)
  let conjugated = ref false in
  let i = ref 0 in
  while !i < 4 do
    let j = ref (!i + 1) in
    while
      !j < 4 && Float.abs (get w (r_a + (5 * order.(!j))) -. get w (r_a + (5 * order.(!i)))) < 1e-7
    do
      incr j
    done;
    let size = !j - !i and i0 = !i in
    if size > 1 then begin
      if not !conjugated then begin
        conjugated := true;
        (* as Eig.conjugate_by *)
        for i = 0 to 3 do
          for j = 0 to 3 do
            let acc = ref 0.0 in
            for k = 0 to 3 do
              acc := !acc +. (get w (r_b + (4 * i) + k) *. get w (r_res + (4 * k) + j))
            done;
            set w (r_tmp + (4 * i) + j) !acc
          done
        done;
        for i = 0 to 3 do
          for j = 0 to 3 do
            let acc = ref 0.0 in
            for k = 0 to 3 do
              acc := !acc +. (get w (r_res + (4 * k) + i) *. get w (r_tmp + (4 * k) + j))
            done;
            set w (r_bp + (4 * i) + j) !acc
          done
        done
      end;
      for r = 0 to size - 1 do
        for c = 0 to size - 1 do
          set w (r_blk + (r * size) + c) (get w (r_bp + (4 * (i0 + r)) + i0 + c))
        done
      done;
      jacobi w size r_blk r_q;
      for r = 0 to 3 do
        for c = 0 to size - 1 do
          set w (r_cols + (r * size) + c) (get w (r_res + (4 * r) + i0 + c))
        done
      done;
      for r = 0 to 3 do
        for c = 0 to size - 1 do
          let acc = ref 0.0 in
          for k = 0 to size - 1 do
            acc := !acc +. (get w (r_cols + (r * size) + k) *. get w (r_q + (k * size) + c))
          done;
          set w (r_res + (4 * r) + i0 + c) !acc
        done
      done
    end;
    i := !j
  done

(* [Mat.argmax_abs] of the 4x4 region [o] *)
let argmax w o =
  let best = ref 0 and best_abs = ref (Float.hypot (get w o) (get w (o + 1))) in
  for k = 1 to 15 do
    let v = Float.hypot (get w (o + (2 * k))) (get w (o + (2 * k) + 1)) in
    if v > !best_abs then begin
      best := k;
      best_abs := v
    end
  done;
  !best

(* Kronfactor's [normalize]: scale the 2x2 region [xo] by
   [one / Complex.sqrt (det x)], unless [|det x| < 1e-12] *)
let normalize w xo =
  det w 2 w xo;
  let dre = get w s_det and dim = get w (s_det + 1) in
  (not (Float.hypot dre dim < 1e-12))
  && begin
       (* Complex.sqrt d, whose d = 0 case cannot occur here *)
       let ar = Float.abs dre and ai = Float.abs dim in
       let wv =
         if ar >= ai then
           let q = ai /. ar in
           sqrt ar *. sqrt (0.5 *. (1.0 +. sqrt (1.0 +. (q *. q))))
         else
           let q = ar /. ai in
           sqrt ai *. sqrt (0.5 *. (q +. sqrt (1.0 +. (q *. q))))
       in
       let sre = if dre >= 0.0 then wv else 0.5 *. ai /. wv in
       let sim = if dre >= 0.0 then 0.5 *. dim /. wv else if dim >= 0.0 then wv else -.wv in
       (* Complex.div Complex.one (sre, sim) *)
       let big = Float.abs sre >= Float.abs sim in
       let r = if big then sim /. sre else sre /. sim in
       let dd = if big then sre +. (r *. sim) else sim +. (r *. sre) in
       let zre = if big then (1.0 +. (r *. 0.0)) /. dd else ((r *. 1.0) +. 0.0) /. dd in
       let zim = if big then (0.0 -. (r *. 1.0)) /. dd else ((r *. 0.0) -. 1.0) /. dd in
       for k = 0 to 3 do
         let p = xo + (2 * k) in
         let vre = get w p and vim = get w (p + 1) in
         set w p ((zre *. vre) -. (zim *. vim));
         set w (p + 1) ((zre *. vim) +. (zim *. vre))
       done;
       true
     end

(* [Kronfactor.kron_factor] of the 4x4 region [so]: on success its
   factors [a] and [b] land in [ao] and [bo] and [arg g] in [s_gphase] *)
let kron_factor w so ao bo =
  let best = argmax w so in
  let r = best / 4 and c = best mod 4 in
  (not (Float.hypot (get w (so + (2 * best))) (get w (so + (2 * best) + 1)) < 1e-12))
  && begin
       let a1 = r / 2 and b1 = r mod 2 and a2 = c / 2 and b2 = c mod 2 in
       for i = 0 to 1 do
         for j = 0 to 1 do
           let k = 2 * ((i * 2) + j) in
           let sb = so + (2 * ((4 * ((2 * a1) + i)) + (2 * a2) + j))
           and sa = so + (2 * ((4 * ((2 * i) + b1)) + (2 * j) + b2)) in
           set w (bo + k) (get w sb);
           set w (bo + k + 1) (get w (sb + 1));
           set w (ao + k) (get w sa);
           set w (ao + k + 1) (get w (sa + 1))
         done
       done;
       normalize w ao && normalize w bo
     end
  && begin
       (* prod = a (x) b, as Mat.kron *)
       for i = 0 to 3 do
         for j = 0 to 3 do
           let p = ao + (2 * (((i / 2) * 2) + (j / 2)))
           and q = bo + (2 * (((i mod 2) * 2) + (j mod 2))) in
           let xre = get w p and xim = get w (p + 1) and yre = get w q and yim = get w (q + 1) in
           let k = r_prod + (2 * ((i * 4) + j)) in
           set w k ((xre *. yre) -. (xim *. yim));
           set w (k + 1) ((xre *. yim) +. (xim *. yre))
         done
       done;
       (* Mat.phase_to m prod: g = m / prod at prod's largest entry, or 1
          when that entry is below 1e-9 and m is prod within 1e-9 *)
       let best = argmax w r_prod in
       let bre = get w (r_prod + (2 * best)) and bim = get w (r_prod + (2 * best) + 1) in
       let tiny = Float.hypot bre bim < 1e-9 in
       let big = Float.abs bre >= Float.abs bim in
       let r = if big then bim /. bre else bre /. bim in
       let dd = if big then bre +. (r *. bim) else bim +. (r *. bre) in
       let xre = get w (so + (2 * best)) and xim = get w (so + (2 * best) + 1) in
       let gre =
         if tiny then 1.0 else if big then (xre +. (r *. xim)) /. dd else ((r *. xre) +. xim) /. dd
       in
       let gim =
         if tiny then 0.0 else if big then (xim -. (r *. xre)) /. dd else ((r *. xim) -. xre) /. dd
       in
       (* |m - g prod|, as Mat.scaled_distance: phase_to's test, and also
          Kronfactor's final frobenius_distance m (scale g prod) *)
       let acc = ref 0.0 in
       for k = 0 to 15 do
         let pre = get w (r_prod + (2 * k)) and pim = get w (r_prod + (2 * k) + 1) in
         let dre = get w (so + (2 * k)) -. ((gre *. pre) -. (gim *. pim))
         and dim = get w (so + (2 * k) + 1) -. ((gre *. pim) +. (gim *. pre)) in
         acc := !acc +. ((dre *. dre) +. (dim *. dim))
       done;
       let dist = sqrt !acc in
       let found =
         if tiny then begin
           (* approx_equal m prod *)
           let acc = ref 0.0 in
           for k = 0 to 15 do
             let dre = get w (so + (2 * k)) -. get w (r_prod + (2 * k))
             and dim = get w (so + (2 * k) + 1) -. get w (r_prod + (2 * k) + 1) in
             acc := !acc +. ((dre *. dre) +. (dim *. dim))
           done;
           sqrt !acc <= 1e-9 *. float_of_int 16
         end
         else
           (not (Float.abs (Float.hypot gre gim -. 1.0) > 1e-6))
           && dist <= 1e-6 *. float_of_int 16
       in
       set w s_gphase (Float.atan2 gim gre);
       found && dist < 1e-6
     end

(* ---- canonicalization moves (each preserves reconstruct) ---- *)

(* v_k -= s * pi/2, compensated by (sigma_k (x) sigma_k) on the left and a
   global phase bump of s*pi/2 (exp(i pi/2 PP) = i P(x)P). *)
let shift w k s =
  if s <> 0 then begin
    set w (s_x + k) (get w (s_x + k) -. (float_of_int s *. half_pi));
    set w s_phase (get w s_phase +. (float_of_int s *. half_pi));
    if s mod 2 <> 0 then begin
      mul2 w r_k1l sigma.(k) ~right:true;
      mul2 w r_k1r sigma.(k) ~right:true
    end
  end

(* swap coordinates k < l by conjugating N with (v (x) v) *)
let swap w k l =
  let a = get w (s_x + k) in
  set w (s_x + k) (get w (s_x + l));
  set w (s_x + l) a;
  let vd = swap_vd.(k + l - 1) and v = swap_v.(k + l - 1) in
  mul2 w r_k1l vd ~right:true;
  mul2 w r_k1r vd ~right:true;
  mul2 w r_k2l v ~right:false;
  mul2 w r_k2r v ~right:false

(* negate the two coordinates OTHER than [spared] by conjugating with
   (sigma_spared (x) I) *)
let negate_pair w spared =
  for k = 0 to 2 do
    if k <> spared then set w (s_x + k) (-.get w (s_x + k))
  done;
  mul2 w r_k1l sigma.(spared) ~right:true;
  mul2 w r_k2l sigma.(spared) ~right:false

let above w k l = Float.compare (Float.abs (get w (s_x + k))) (Float.abs (get w (s_x + l))) > 0

let canonicalize w =
  (* 1. bring every coordinate into [-pi/4, pi/4] *)
  for k = 0 to 2 do
    shift w k (int_of_float (Float.round (get w (s_x + k) /. half_pi)))
  done;
  (* 2. sort by absolute value, descending; a tie keeps the lower
     coordinate first *)
  let i0 = if above w 1 0 then 1 else 0 in
  let i0 = if above w 2 i0 then 2 else i0 in
  if i0 <> 0 then swap w 0 i0;
  if above w 2 1 then swap w 1 2;
  (* 3. make x and y non-negative *)
  if get w s_x < 0.0 then negate_pair w 1;
  if get w (s_x + 1) < 0.0 then negate_pair w 0;
  (* 4. boundary identification: at x = pi/4 the classes (x,y,z) and
     (x,y,-z) coincide; prefer z >= 0 there *)
  if get w (s_x + 2) < -1e-12 && Float.abs (get w s_x -. quarter_pi) < 1e-9 then begin
    (* shift x by pi/2 (x -> -pi/4), then negate (x, z) *)
    shift w 0 1;
    negate_pair w 1
  end

(* ---- the decomposition ---- *)

let c_decompositions = Qobs.counter "weyl.decompositions"

let factor w r =
  let f = Mat.zeros 2 2 in
  Float.Array.blit w r (Mat.storage f) 0 8;
  f

let decompose u =
  Qobs.incr c_decompositions;
  let not_unitary () = invalid_arg "Weyl.decompose: input must be a 4x4 unitary" in
  if Mat.rows u <> 4 || Mat.cols u <> 4 then not_unitary ();
  let ({ w; _ } as ws) = Domain.DLS.get ws_key in
  let us = Mat.storage u in
  (* is_unitary ~eps:1e-7: |u^dagger u - I| <= 1e-7 * 16 *)
  for i = 0 to 3 do
    for j = 0 to 3 do
      let s = 2 * ((j * 4) + i) and k = r_t + (2 * ((i * 4) + j)) in
      set w k (get us s);
      set w (k + 1) (-.get us (s + 1))
    done
  done;
  mul4 w r_t us 0 w r_m;
  let acc = ref 0.0 in
  for k = 0 to 15 do
    let dre = get w (r_m + (2 * k)) -. (if k mod 5 = 0 then 1.0 else 0.0)
    and dim = get w (r_m + (2 * k) + 1) -. 0.0 in
    acc := !acc +. ((dre *. dre) +. (dim *. dim))
  done;
  if not (sqrt !acc <= 1e-7 *. float_of_int 16) then not_unitary ();
  det w 4 us 0;
  let phase0 = Float.atan2 (get w (s_det + 1)) (get w s_det) /. 4.0 in
  (* su = e^{-i phase0} u; m = E^dagger su E; m2 = m^T m *)
  let zre = cos (-.phase0) and zim = sin (-.phase0) in
  for k = 0 to 15 do
    let vre = get us (2 * k) and vim = get us ((2 * k) + 1) in
    set w (r_t + (2 * k)) ((zre *. vre) -. (zim *. vim));
    set w (r_t + (2 * k) + 1) ((zre *. vim) +. (zim *. vre))
  done;
  mul4 w r_t magic_e 0 w r_p;
  mul4 magic_edag 0 w r_p w r_m;
  for i = 0 to 3 do
    for j = 0 to 3 do
      let s = r_m + (2 * ((j * 4) + i)) and k = r_t + (2 * ((i * 4) + j)) in
      set w k (get w s);
      set w (k + 1) (get w (s + 1))
    done
  done;
  mul4 w r_t w r_m w r_m2;
  (* the real orthogonal p diagonalizing both parts of m2, det p = +1 *)
  for k = 0 to 15 do
    set w (r_a + k) (get w (r_m2 + (2 * k)));
    set w (r_b + k) (get w (r_m2 + (2 * k) + 1))
  done;
  simultaneous_diagonalize ws;
  for k = 0 to 15 do
    set w (r_p + (2 * k)) (get w (r_res + k));
    set w (r_p + (2 * k) + 1) 0.0
  done;
  det w 4 w r_p;
  if get w s_det < 0.0 then
    for i = 0 to 3 do
      set w (r_p + (8 * i)) (-.get w (r_res + (4 * i)))
    done;
  (* theta_j = arg (p^T m2 p)_jj / 2 *)
  mul4 w r_m2 w r_p w r_mp;
  for j = 0 to 3 do
    let dre = ref 0.0 and dim = ref 0.0 in
    for k = 0 to 3 do
      let a = r_p + (2 * ((k * 4) + j)) in
      let are = get w a and aim = get w (a + 1) in
      if not (Float.abs are <= 0.0 && Float.abs aim <= 0.0) then begin
        let b = r_mp + (2 * ((k * 4) + j)) in
        let bre = get w b and bim = get w (b + 1) in
        dre := !dre +. ((are *. bre) -. (aim *. bim));
        dim := !dim +. ((are *. bim) +. (aim *. bre))
      end
    done;
    set w (s_theta + j) (Float.atan2 !dim !dre /. 2.0)
  done;
  (* branch fix: product of the d_j must be +1 so that k1 lands in SO(4) *)
  let total =
    get w s_theta +. get w (s_theta + 1) +. get w (s_theta + 2) +. get w (s_theta + 3)
  in
  if Float.hypot (cos total -. 1.0) (sin total -. 0.0) > 0.5 then
    set w s_theta (get w s_theta +. pi);
  let t0 = get w s_theta and t1 = get w (s_theta + 1) in
  let t2 = get w (s_theta + 2) and t3 = get w (s_theta + 3) in
  (* k1 = m p a^-1, k2 = p^T; left = E k1 E^dagger, right = E k2 E^dagger *)
  Float.Array.fill w r_ainv 32 0.0;
  for i = 0 to 3 do
    let t = get w (s_theta + i) in
    set w (r_ainv + (10 * i)) (cos (-.t));
    set w (r_ainv + (10 * i) + 1) (sin (-.t))
  done;
  mul4 w r_p w r_ainv w r_pa;
  mul4 w r_m w r_pa w r_k1;
  mul4 w r_k1 magic_edag 0 w r_t;
  mul4 magic_e 0 w r_t w r_left;
  for i = 0 to 3 do
    for j = 0 to 3 do
      let s = r_p + (2 * ((j * 4) + i)) and k = r_pt + (2 * ((i * 4) + j)) in
      set w k (get w s);
      set w (k + 1) (get w (s + 1))
    done
  done;
  mul4 w r_pt magic_edag 0 w r_t;
  mul4 magic_e 0 w r_t w r_right;
  if not (kron_factor w r_left r_k1l r_k1r) then
    invalid_arg "Weyl.decompose: left factor is not local";
  let gl = get w s_gphase in
  if not (kron_factor w r_right r_k2l r_k2r) then
    invalid_arg "Weyl.decompose: right factor is not local";
  let gr = get w s_gphase in
  let g = (t0 +. t1 +. t2 +. t3) /. 4.0 in
  set w s_x ((t0 +. t1 -. t2 -. t3) /. 4.0);
  set w (s_x + 1) ((-.t0 +. t1 -. t2 +. t3) /. 4.0);
  set w (s_x + 2) ((t0 -. t1 -. t2 +. t3) /. 4.0);
  set w s_phase (phase0 +. g +. gl +. gr);
  canonicalize w;
  {
    phase = get w s_phase;
    k1l = factor w r_k1l;
    k1r = factor w r_k1r;
    x = get w s_x;
    y = get w (s_x + 1);
    z = get w (s_x + 2);
    k2l = factor w r_k2l;
    k2r = factor w r_k2r;
  }

let coords u =
  let r = decompose u in
  (r.x, r.y, r.z)

(* the chamber rule: the minimal CNOT count of a decomposition's
   coordinates, each compared within 1e-8 *)
let cnot_class r =
  let eps = 1e-8 in
  let near a b = Float.abs (a -. b) < eps in
  if near r.x 0.0 && near r.y 0.0 && near r.z 0.0 then 0
  else if near r.x quarter_pi && near r.y 0.0 && near r.z 0.0 then 1
  else if near r.z 0.0 then 2
  else 3

let cnot_cost u = cnot_class (decompose u)

let yy = Mat.kron y_mat y_mat

(* tr gamma and tr gamma^2 of the det-normalized [u], where
   gamma = su (Y(x)Y) su^T (Y(x)Y) *)
let gamma_traces u =
  let det = Mat.det u in
  let phase0 = Cx.arg det /. 4.0 in
  let su = Mat.scale (Cx.exp_i (-.phase0)) u in
  let gamma = Mat.mul su (Mat.mul yy (Mat.mul (Mat.transpose su) yy)) in
  (Mat.trace gamma, Mat.trace (Mat.mul gamma gamma))

let cnot_cost_fast u =
  let tr, tr2 = gamma_traces u in
  let eps = 1e-7 in
  (* local class: gamma = +/-I, i.e. trace +/-4 and REAL (gamma = +/-i I,
     trace +/-4i, is the SWAP class and needs 3) *)
  if Cx.abs Cx.(tr - re 4.0) < eps || Cx.abs Cx.(tr + re 4.0) < eps then 0
  else if Cx.abs tr < eps && Cx.abs Cx.(tr2 + re 4.0) < eps then 1
  else if Float.abs tr.Complex.im < eps then 2
  else 3

let gamma_invariants u =
  let tr, tr2 = gamma_traces u in
  let g1 = Cx.scale (1.0 /. 16.0) Cx.(tr * tr) in
  let g2 = Cx.scale 0.25 Cx.((tr * tr) - tr2) in
  (g1, g2)
