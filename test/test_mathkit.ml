open Mathkit
open Kakref

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17);
    let f = Rng.float rng 2.5 in
    check "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_permutation () =
  let rng = Rng.create 3 in
  let p = Rng.permutation rng 20 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check "is permutation" true (sorted = Array.init 20 (fun i -> i))

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  check "split streams differ" true (xs <> ys)

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    acc := !acc +. x;
    acc2 := !acc2 +. (x *. x)
  done;
  let mean = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (mean *. mean) in
  check "mean near 0" true (Float.abs mean < 0.05);
  check "variance near 1" true (Float.abs (var -. 1.0) < 0.05)

(* MD5 of the first 64 draws of each kind from a fresh generator, as the
   boxed-Int64 generator printed them: the unboxed state must keep the
   exact splitmix64 stream ([split]: one draw from each child) *)
let pinned_streams =
  [
    (0, "int", "8fb30d529a45616514cb7ff265c85c15");
    (0, "float", "d8d2169f371f1664a05b5b059565cb0f");
    (0, "bool", "bba5edcb5668098e4c40fef7e6152fd2");
    (0, "split", "e96258cc957556e991d7f68b6c0d7e07");
    (1, "int", "64c217c248e1146b6e2d099d886a327b");
    (1, "float", "512a9c60d7285964da02e3c982eb6fdc");
    (1, "bool", "91aaf25e0f6f1523ce3237cd84ff8566");
    (1, "split", "c741ddb9e3d86e7136df046f9c8d0603");
    (3, "int", "2c0bc3986d61674af24c9ea3434872b3");
    (3, "float", "b9f525a6e9c67bb323c15039f2cd004b");
    (3, "bool", "2faa6ab76cf7a31fcfbf34f753d014c9");
    (3, "split", "c3634bb67a39b238750b97c0cab6fdbd");
    (-1, "int", "61613c14224edcd7309307558df2e1a6");
    (-1, "float", "896693892a3f59a453bb2edba1694202");
    (-1, "bool", "c2f4a1b9abc1da20c0c025516a7af97b");
    (-1, "split", "7abcb14e58070135a10ab938c73c1427");
    (max_int, "int", "e8a5243716005059277d658f954e589e");
    (max_int, "float", "1ab5fdbb164f1d4dc5d1f4f1c5d923a3");
    (max_int, "bool", "6b0ad63349c78f786a9a9ac07daeade8");
    (max_int, "split", "9c0f5bd5c3e4fe24c7bfd1710fb4c423")
  ]

let rng_stream seed kind =
  let g = Rng.create seed in
  let draw () =
    match kind with
    | "int" -> string_of_int (Rng.int g max_int)
    | "float" -> Printf.sprintf "%h" (Rng.float g 1.0)
    | "bool" -> string_of_bool (Rng.bool g)
    | _ -> string_of_int (Rng.int (Rng.split g) max_int)
  in
  String.concat "," (List.init 64 (fun _ -> draw ()))

let test_rng_pinned () =
  List.iter
    (fun (seed, kind, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d %s" seed kind)
        digest
        (Digest.to_hex (Digest.string (rng_stream seed kind))))
    pinned_streams

(* ---------- Mat ---------- *)

let rng0 () = Rng.create 12345

let test_mat_identity_mul () =
  let rng = rng0 () in
  let u = Randmat.unitary rng 4 in
  check "I*u = u" true (Mat.approx_equal (Mat.mul (Mat.identity 4) u) u);
  check "u*I = u" true (Mat.approx_equal (Mat.mul u (Mat.identity 4)) u)

let test_mat_unitary_random () =
  let rng = rng0 () in
  for n = 1 to 6 do
    let u = Randmat.unitary rng n in
    check (Printf.sprintf "unitary %dx%d" n n) true (Mat.is_unitary u)
  done

let test_mat_det_identity () =
  checkf "det I4" 1.0 (Cx.abs (Mat.det (Mat.identity 4)))

let test_mat_det_unitary_modulus () =
  let rng = rng0 () in
  for n = 2 to 5 do
    let u = Randmat.unitary rng n in
    checkf "det modulus 1" 1.0 (Cx.abs (Mat.det u))
  done

let test_mat_det_multiplicative () =
  let rng = rng0 () in
  let a = Randmat.ginibre rng 3 and b = Randmat.ginibre rng 3 in
  let d1 = Mat.det (Mat.mul a b) and d2 = Cx.(Mat.det a * Mat.det b) in
  check "det(ab) = det a det b" true (Cx.approx ~eps:1e-6 d1 d2)

let test_mat_kron_shape () =
  let a = Mat.identity 2 and b = Mat.identity 3 in
  let k = Mat.kron a b in
  checki "kron rows" 6 (Mat.rows k);
  check "kron of ids is id" true (Mat.approx_equal k (Mat.identity 6))

let test_mat_kron_mixed_product () =
  (* (A kron B)(C kron D) = AC kron BD *)
  let rng = rng0 () in
  let a = Randmat.ginibre rng 2
  and b = Randmat.ginibre rng 2
  and c = Randmat.ginibre rng 2
  and d = Randmat.ginibre rng 2 in
  let lhs = Mat.mul (Mat.kron a b) (Mat.kron c d) in
  let rhs = Mat.kron (Mat.mul a c) (Mat.mul b d) in
  check "mixed product" true (Mat.frobenius_distance lhs rhs < 1e-9)

let test_mat_adjoint_involution () =
  let rng = rng0 () in
  let a = Randmat.ginibre rng 4 in
  check "adj adj = id" true (Mat.approx_equal (Mat.adjoint (Mat.adjoint a)) a)

let test_mat_trace_cyclic () =
  let rng = rng0 () in
  let a = Randmat.ginibre rng 3 and b = Randmat.ginibre rng 3 in
  let t1 = Mat.trace (Mat.mul a b) and t2 = Mat.trace (Mat.mul b a) in
  check "tr(ab)=tr(ba)" true (Cx.approx ~eps:1e-8 t1 t2)

let test_mat_phase_to () =
  let rng = rng0 () in
  let u = Randmat.unitary rng 4 in
  let z = Cx.exp_i 0.7 in
  (match Mat.phase_to (Mat.scale z u) u with
  | Some w -> check "phase recovered" true (Cx.approx ~eps:1e-8 w z)
  | None -> Alcotest.fail "phase_to found nothing");
  check "equal_up_to_phase" true (Mat.equal_up_to_phase (Mat.scale z u) u);
  let v = Randmat.unitary rng 4 in
  check "different unitaries" false (Mat.equal_up_to_phase u v)

let test_mat_phase_eps () =
  let rng = rng0 () in
  let u = Randmat.unitary rng 4 in
  (* a 1e-5 perturbation away from the reference entry leaves the phase
     exactly 1: within the default bound (1e-6 * 16), outside 1e-7 * 16 *)
  let k = (Mat.argmax_abs u + 1) mod 16 in
  let v = Mat.copy u in
  Mat.set v (k / 4) (k mod 4) (Complex.add (Mat.get u (k / 4) (k mod 4)) (Cx.re 1e-5));
  check "default eps accepts" true (Mat.equal_up_to_phase v u);
  check "eps 1e-6 is the default" true (Mat.equal_up_to_phase ~eps:1e-6 v u);
  check "eps 1e-7 rejects" false (Mat.equal_up_to_phase ~eps:1e-7 v u);
  check "phase_to honours eps" true (Mat.phase_to ~eps:1e-7 v u = None)

(* ---------- Eig ---------- *)

(* row arrays <-> Eig's row-major flat storage *)
let flat rows =
  let n = Array.length rows in
  Float.Array.init (n * n) (fun k -> rows.(k / n).(k mod n))
let unflat n a = Array.init n (fun i -> Array.init n (fun j -> Float.Array.get a ((i * n) + j)))

let random_symmetric rng n =
  let a = Array.init n (fun _ -> Array.init n (fun _ -> Rng.gaussian rng)) in
  Array.init n (fun i -> Array.init n (fun j -> (a.(i).(j) +. a.(j).(i)) /. 2.0))

let test_jacobi_diagonalizes () =
  let rng = rng0 () in
  for n = 2 to 6 do
    let a = random_symmetric rng n in
    let vals, v = Eig.jacobi (flat a) in
    let vals = Float.Array.map_to_array Fun.id vals and v = unflat n v in
    (* check A v_k = lambda_k v_k *)
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        let av = ref 0.0 in
        for j = 0 to n - 1 do
          av := !av +. (a.(i).(j) *. v.(j).(k))
        done;
        check "eigenpair" true (Float.abs (!av -. (vals.(k) *. v.(i).(k))) < 1e-8)
      done
    done
  done

let test_jacobi_orthogonal () =
  let rng = rng0 () in
  let a = random_symmetric rng 5 in
  let v = unflat 5 (snd (Eig.jacobi (flat a))) in
  for i = 0 to 4 do
    for j = 0 to 4 do
      let dot = ref 0.0 in
      for k = 0 to 4 do
        dot := !dot +. (v.(k).(i) *. v.(k).(j))
      done;
      let expect = if i = j then 1.0 else 0.0 in
      check "orthonormal columns" true (Float.abs (!dot -. expect) < 1e-9)
    done
  done

(* p . diag(vals) . p^T: symmetric, with p's columns as eigenvectors *)
let with_spectrum p vals =
  let n = Array.length vals in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref 0.0 in
          for k = 0 to n - 1 do
            acc := !acc +. (p.(i).(k) *. vals.(k) *. p.(j).(k))
          done;
          !acc))

let test_simultaneous_diag () =
  let rng = rng0 () in
  (* Build two commuting symmetric matrices: same eigenbasis, different
     (degenerate) spectra. *)
  for _ = 1 to 10 do
    let n = 4 in
    let p = unflat n (snd (Eig.jacobi (flat (random_symmetric rng n)))) in
    (* a has a degenerate pair so b is needed to split it *)
    let a = with_spectrum p [| 1.0; 1.0; 2.0; 3.0 |] in
    let b = with_spectrum p [| 5.0; -1.0; 0.5; 0.5 |] in
    let q = unflat n (Eig.simultaneous_diagonalize (flat a) (flat b)) in
    let conj m =
      Array.init n (fun i ->
          Array.init n (fun j ->
              let acc = ref 0.0 in
              for k = 0 to n - 1 do
                for l = 0 to n - 1 do
                  acc := !acc +. (q.(k).(i) *. m.(k).(l) *. q.(l).(j))
                done
              done;
              !acc))
    in
    check "a diagonalized" true (Eig.off_diagonal_norm (flat (conj a)) < 1e-7);
    check "b diagonalized" true (Eig.off_diagonal_norm (flat (conj b)) < 1e-7)
  done

(* ---------- Euler ---------- *)

let test_euler_roundtrip () =
  let rng = rng0 () in
  for _ = 1 to 50 do
    let u = Randmat.unitary rng 2 in
    let z = Euler.zyz_of_unitary u in
    let r = Euler.zyz_to_mat z in
    check "zyz roundtrip" true (Mat.frobenius_distance u r < 1e-8)
  done

let test_euler_special_cases () =
  let cases =
    [
      Mat.identity 2;
      Euler.rz_mat 1.3;
      Euler.ry_mat 0.4;
      Euler.rx_mat (-2.0);
      Mat.of_real_rows [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ];
    ]
  in
  List.iter
    (fun u ->
      let z = Euler.zyz_of_unitary u in
      check "special case roundtrip" true (Mat.frobenius_distance u (Euler.zyz_to_mat z) < 1e-8))
    cases

let test_u_params () =
  let rng = rng0 () in
  for _ = 1 to 30 do
    let u = Randmat.unitary rng 2 in
    let theta, phi, lam, phase = Euler.u_params_of_unitary u in
    let r = Mat.scale (Cx.exp_i phase) (Euler.u_mat theta phi lam) in
    check "u params roundtrip" true (Mat.frobenius_distance u r < 1e-8)
  done

(* ---------- Kronfactor ---------- *)

let test_kron_factor_roundtrip () =
  let rng = rng0 () in
  for _ = 1 to 50 do
    let a = Randmat.su2 rng and b = Randmat.su2 rng in
    let m = Mat.scale (Cx.exp_i (Rng.float rng 6.28)) (Mat.kron a b) in
    match Kronfactor.kron_factor m with
    | None -> Alcotest.fail "kron_factor failed on a kron product"
    | Some (g, a', b') ->
        let r = Mat.scale g (Mat.kron a' b') in
        check "kron roundtrip" true (Mat.frobenius_distance m r < 1e-7)
  done

let test_kron_factor_rejects () =
  let rng = rng0 () in
  (* CNOT is maximally non-local among permutations: not a kron product *)
  let cnot =
    Mat.of_real_rows
      [
        [ 1.0; 0.0; 0.0; 0.0 ];
        [ 0.0; 1.0; 0.0; 0.0 ];
        [ 0.0; 0.0; 0.0; 1.0 ];
        [ 0.0; 0.0; 1.0; 0.0 ];
      ]
  in
  check "cnot is not a kron product" true (Kronfactor.kron_factor cnot = None);
  let u = Randmat.su4 rng in
  (* generic su4 should essentially never factor *)
  check "random su4 does not factor" true (Kronfactor.kron_factor u = None)

(* ---------- Bit identity against the boxed kernels ---------- *)

(* The kernels [Mat] had when it stored a [Complex.t array], kept verbatim
   as the reference: the flat kernels must reproduce every bit. *)
module Ref = struct
  type t = { r : int; c : int; m : Cx.t array }

  let init r c f = { r; c; m = Array.init (r * c) (fun k -> f (k / c) (k mod c)) }
  let of_mat a = init (Mat.rows a) (Mat.cols a) (Mat.get a)
  let get a i j = a.m.((i * a.c) + j)
  let set a i j v = a.m.((i * a.c) + j) <- v
  let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)
  let map f a = { a with m = Array.map f a.m }
  let map2 f a b = { a with m = Array.mapi (fun k v -> f v b.m.(k)) a.m }
  let scale z a = map (fun v -> Cx.(z * v)) a

  let mul a b =
    let out = init a.r b.c (fun _ _ -> Cx.zero) in
    for i = 0 to a.r - 1 do
      for k = 0 to a.c - 1 do
        let aik = get a i k in
        if not (Cx.is_zero ~eps:0.0 aik) then
          for j = 0 to b.c - 1 do
            let cur = get out i j and bkj = get b k j in
            set out i j Cx.(cur + (aik * bkj))
          done
      done
    done;
    out

  let kron a b =
    init (a.r * b.r) (a.c * b.c) (fun i j ->
        let x = get a (i / b.r) (j / b.c) and y = get b (i mod b.r) (j mod b.c) in
        Cx.(x * y))

  let transpose a = init a.c a.r (fun i j -> get a j i)
  let adjoint a = init a.c a.r (fun i j -> Cx.conj (get a j i))

  let trace a =
    let acc = ref Cx.zero in
    for i = 0 to min a.r a.c - 1 do
      let d = get a i i in
      acc := Cx.(!acc + d)
    done;
    !acc

  let det a =
    let n = a.r in
    let w = { a with m = Array.copy a.m } in
    let sign = ref 1.0 in
    let result = ref Cx.one in
    (try
       for col = 0 to n - 1 do
         let pivot = ref col in
         for i = col + 1 to n - 1 do
           if Cx.abs (get w i col) > Cx.abs (get w !pivot col) then pivot := i
         done;
         if Cx.abs (get w !pivot col) < 1e-300 then begin
           result := Cx.zero;
           raise Exit
         end;
         if !pivot <> col then begin
           sign := -. !sign;
           for j = 0 to n - 1 do
             let tmp = get w col j in
             set w col j (get w !pivot j);
             set w !pivot j tmp
           done
         end;
         let d = get w col col in
         result := Cx.(!result * d);
         for i = col + 1 to n - 1 do
           let num = get w i col in
           let factor = Cx.(num / d) in
           for j = col to n - 1 do
             let cur = get w i j and piv = get w col j in
             set w i j Cx.(cur - (factor * piv))
           done
         done
       done
     with Exit -> ());
    Cx.scale !sign !result

  let apply_vec a v =
    Array.init a.r (fun i ->
        let acc = ref Cx.zero in
        for j = 0 to a.c - 1 do
          let x = get a i j and y = v.(j) in
          acc := Cx.(!acc + (x * y))
        done;
        !acc)

  let frobenius_distance a b =
    let acc = ref 0.0 in
    Array.iteri (fun k v -> acc := !acc +. Cx.abs2 Cx.(v - b.m.(k))) a.m;
    sqrt !acc

  let approx_equal ?(eps = 1e-9) a b =
    a.r = b.r && a.c = b.c && frobenius_distance a b <= eps *. float_of_int (a.r * a.c)

  let phase_to a b =
    let best = ref 0 in
    Array.iteri (fun k v -> if Cx.abs v > Cx.abs b.m.(!best) then best := k) b.m;
    if Cx.abs b.m.(!best) < 1e-9 then if approx_equal a b then Some Cx.one else None
    else
      let z = Cx.(a.m.(!best) / b.m.(!best)) in
      if Float.abs (Cx.abs z -. 1.0) > 1e-6 then None
      else if frobenius_distance a (scale z b) <= 1e-6 *. float_of_int (a.r * a.c) then Some z
      else None

  let is_unitary ?(eps = 1e-9) a =
    a.r = a.c && approx_equal ~eps (mul (adjoint a) a) (identity a.r)

  (* [Circuit.embed] as it was: a closure per entry over an index fold *)
  let embed ~n g qs =
    let qs = Array.of_list qs in
    let bit x q = (x lsr (n - 1 - q)) land 1 in
    let local x = Array.to_list qs |> List.fold_left (fun acc q -> (acc lsl 1) lor bit x q) 0 in
    let rest_mask = ref 0 in
    for q = 0 to n - 1 do
      if not (Array.exists (( = ) q) qs) then rest_mask := !rest_mask lor (1 lsl (n - 1 - q))
    done;
    init (1 lsl n) (1 lsl n) (fun i j ->
        if i land !rest_mask <> j land !rest_mask then Cx.zero
        else Mat.get g (local i) (local j))
end

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
let cx_bits (x : Cx.t) (y : Cx.t) = same_bits x.re y.re && same_bits x.im y.im

let mat_bits m (r : Ref.t) =
  Mat.rows m = r.r && Mat.cols m = r.c && Array.for_all2 cx_bits (Ref.of_mat m).m r.m

(* Entries that exercise the kernels' edge cases: exact zeros of every
   sign combination, zero real or imaginary parts, and, with [~inf],
   infinities (which turn a product with a zero into NaN, so they expose
   whether [mul] skips a zero left entry). *)
let edge_entry ?(inf = false) rng =
  let signed_zero () = if Rng.bool rng then 0.0 else -0.0 in
  match Rng.int rng 10 with
  | 0 | 1 -> Cx.make (signed_zero ()) (signed_zero ())
  | 2 -> Cx.make (Rng.gaussian rng) (signed_zero ())
  | 3 -> Cx.make (signed_zero ()) (Rng.gaussian rng)
  | 4 when inf -> Cx.make (if Rng.bool rng then infinity else neg_infinity) (Rng.gaussian rng)
  | _ -> Cx.make (Rng.gaussian rng) (Rng.gaussian rng)

let edge_mat ?inf rng r c = Mat.init r c (fun _ _ -> edge_entry ?inf rng)
let pick_dim rng = Rng.pick rng [ 2; 4; 8 ]

let prop_bits ~name ~count f =
  QCheck.Test.make ~name ~count ~long_factor:20
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed -> f (Rng.create seed))

let bit_identity_props =
  let mul_bits =
    prop_bits ~name:"mul = boxed mul, bit for bit" ~count:300 (fun rng ->
        let n = pick_dim rng and k = pick_dim rng and m = pick_dim rng in
        let a = edge_mat rng n k and b = edge_mat ~inf:true rng k m in
        mat_bits (Mat.mul a b) (Ref.mul (Ref.of_mat a) (Ref.of_mat b)))
  in
  let det_bits =
    prop_bits ~name:"det = boxed det, bit for bit" ~count:300 (fun rng ->
        let n = Rng.pick rng [ 2; 3; 4; 8 ] in
        let a = edge_mat rng n n in
        (* a tiny column keeps its pivot above 1e-300 only by its modulus
           (its squared modulus is below); a zero column is singular, after
           any number of pivot swaps *)
        let col = Rng.int rng n in
        (match Rng.int rng 3 with
        | 0 -> for i = 0 to n - 1 do Mat.set a i col (Complex.mul (Cx.re 1e-200) (Mat.get a i col)) done
        | 1 -> for i = 0 to n - 1 do Mat.set a i col Cx.zero done
        | _ -> ());
        cx_bits (Mat.det a) (Ref.det (Ref.of_mat a)))
  in
  let kernel_bits =
    prop_bits ~name:"entrywise kernels = boxed kernels" ~count:300 (fun rng ->
        let n = pick_dim rng in
        let a = edge_mat rng n n and b = edge_mat rng n n in
        let ra = Ref.of_mat a and rb = Ref.of_mat b in
        let z = edge_entry rng and v = Array.init n (fun _ -> edge_entry rng) in
        let p = Rng.pick rng [ 1; 2 ] and q = Rng.pick rng [ 2; 4 ] in
        let x = edge_mat rng p p and y = edge_mat rng q q in
        mat_bits (Mat.kron x y) (Ref.kron (Ref.of_mat x) (Ref.of_mat y))
        && mat_bits (Mat.scale z a) (Ref.scale z ra)
        && mat_bits (Mat.adjoint a) (Ref.adjoint ra)
        && mat_bits (Mat.transpose a) (Ref.transpose ra)
        && mat_bits (Mat.conj a) (Ref.map Cx.conj ra)
        && mat_bits (Mat.add a b) (Ref.map2 Cx.( + ) ra rb)
        && mat_bits (Mat.sub a b) (Ref.map2 Cx.( - ) ra rb)
        && cx_bits (Mat.trace a) (Ref.trace ra)
        && same_bits (Mat.frobenius_distance a b) (Ref.frobenius_distance ra rb)
        && Array.for_all2 cx_bits (Mat.apply_vec a v) (Ref.apply_vec ra v))
  in
  let phase_bits =
    prop_bits ~name:"phase_to, is_unitary = boxed kernels" ~count:300 (fun rng ->
        let n = pick_dim rng in
        let u = Randmat.unitary rng n in
        let a = Mat.scale (Cx.exp_i (Rng.float rng 6.3)) u in
        (* perturb one entry: not at all, below, near and above the bound *)
        let i = Rng.int rng n and j = Rng.int rng n in
        let d = Rng.pick rng [ 0.0; 1e-9; 1e-6; 1e-5; 1e-3 ] in
        Mat.set a i j (Complex.add (Mat.get a i j) (Cx.re d));
        let b = if Rng.int rng 4 = 0 then edge_mat rng n n else u in
        let phase_ok =
          match (Mat.phase_to a b, Ref.phase_to (Ref.of_mat a) (Ref.of_mat b)) with
          | Some z, Some w -> cx_bits z w
          | None, None -> true
          | _ -> false
        in
        let eps = Rng.pick rng [ 1e-9; 1e-7; 1e-5 ] in
        phase_ok
        && Mat.is_unitary ~eps a = Ref.is_unitary ~eps (Ref.of_mat a)
        && Mat.is_unitary u = Ref.is_unitary (Ref.of_mat u))
  in
  let angle_bits =
    prop_bits ~name:"u_angles = u_params angles, bit for bit" ~count:300 (fun rng ->
        let a () = Rng.float rng 12.6 -. 6.3 in
        (* off-diagonal, then diagonal, entries of modulus below the 1e-10
           cut take the two special branches *)
        let tiny () =
          Cx.make (Rng.pick rng [ 0.0; -0.0; 1e-12; -5e-11 ]) (Rng.pick rng [ 0.0; -0.0; 3e-11 ])
        in
        let diagonal = Mat.of_rows [ [ Cx.exp_i (a ()); tiny () ]; [ tiny (); Cx.exp_i (a ()) ] ] in
        let anti = Mat.of_rows [ [ tiny (); Cx.exp_i (a ()) ]; [ Cx.exp_i (a ()); tiny () ] ] in
        List.for_all
          (fun u ->
            let t, p, l = Euler.u_angles_of_unitary u
            and t', p', l', _ = Euler.u_params_of_unitary u in
            same_bits t t' && same_bits p p' && same_bits l l')
          [ Randmat.unitary rng 2; diagonal; anti ])
  in
  List.map QCheck_alcotest.to_alcotest [ mul_bits; det_bits; kernel_bits; phase_bits; angle_bits ]

(* The row-array solver that [Eig]'s flat one replaced, kept verbatim as
   the reference; [degenerate_blocks] counts the degenerate eigenspaces
   [simultaneous_diagonalize] re-diagonalized against [b]. *)
module Ref_eig = struct
  let degenerate_blocks = ref 0
  let mat_copy a = Array.map Array.copy a

  let off_diagonal_norm a =
    let n = Array.length a in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then acc := !acc +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    sqrt !acc

  let rotate a v p q =
    let apq = a.(p).(q) in
    if Float.abs apq > 1e-300 then begin
      let app = a.(p).(p) and aqq = a.(q).(q) in
      let theta = (aqq -. app) /. (2.0 *. apq) in
      let t =
        let s = if theta >= 0.0 then 1.0 else -1.0 in
        s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
      in
      let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
      let s = t *. c in
      let n = Array.length a in
      for k = 0 to n - 1 do
        let akp = a.(k).(p) and akq = a.(k).(q) in
        a.(k).(p) <- (c *. akp) -. (s *. akq);
        a.(k).(q) <- (s *. akp) +. (c *. akq)
      done;
      for k = 0 to n - 1 do
        let apk = a.(p).(k) and aqk = a.(q).(k) in
        a.(p).(k) <- (c *. apk) -. (s *. aqk);
        a.(q).(k) <- (s *. apk) +. (c *. aqk)
      done;
      for k = 0 to n - 1 do
        let vkp = v.(k).(p) and vkq = v.(k).(q) in
        v.(k).(p) <- (c *. vkp) -. (s *. vkq);
        v.(k).(q) <- (s *. vkp) +. (c *. vkq)
      done
    end

  let jacobi a0 =
    let n = Array.length a0 in
    let a = mat_copy a0 in
    let v = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
    let rec sweep k =
      if k < 100 && off_diagonal_norm a > 1e-13 then begin
        for p = 0 to n - 2 do
          for q = p + 1 to n - 1 do
            rotate a v p q
          done
        done;
        sweep (k + 1)
      end
    in
    sweep 0;
    (Array.init n (fun i -> a.(i).(i)), v)

  let conjugate_by m p =
    let n = Array.length m in
    let tmp = Array.make_matrix n n 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (m.(i).(k) *. p.(k).(j))
        done;
        tmp.(i).(j) <- !acc
      done
    done;
    let out = Array.make_matrix n n 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (p.(k).(i) *. tmp.(k).(j))
        done;
        out.(i).(j) <- !acc
      done
    done;
    out

  let simultaneous_diagonalize a b =
    let n = Array.length a in
    let vals, p = jacobi a in
    let order = Array.init n (fun i -> i) in
    Array.sort (fun i j -> compare vals.(i) vals.(j)) order;
    let p_sorted = Array.init n (fun i -> Array.init n (fun j -> p.(i).(order.(j)))) in
    let vals_sorted = Array.map (fun i -> vals.(i)) order in
    let b' = conjugate_by b p_sorted in
    let result = mat_copy p_sorted in
    let i = ref 0 in
    while !i < n do
      let j = ref (!i + 1) in
      while !j < n && Float.abs (vals_sorted.(!j) -. vals_sorted.(!i)) < 1e-7 do
        incr j
      done;
      let size = !j - !i in
      if size > 1 then begin
        incr degenerate_blocks;
        let block = Array.init size (fun r -> Array.init size (fun c -> b'.(!i + r).(!i + c))) in
        let _, q = jacobi block in
        let cols = Array.init n (fun r -> Array.init size (fun c -> result.(r).(!i + c))) in
        for r = 0 to n - 1 do
          for c = 0 to size - 1 do
            let acc = ref 0.0 in
            for k = 0 to size - 1 do
              acc := !acc +. (cols.(r).(k) *. q.(k).(c))
            done;
            result.(r).(!i + c) <- !acc
          done
        done
      end;
      i := !j
    done;
    result
end

let vec_bits a r =
  Float.Array.length a = Array.length r
  && Array.for_all2 same_bits (Float.Array.map_to_array Fun.id a) r

let sq_bits a r = vec_bits a (Array.concat (Array.to_list r))

(* eigenvalues drawn from three values half the time, so repeated ones
   (degenerate eigenspaces) are common; some are nudged by 3e-8 or 3e-7,
   just inside and just outside the 1e-7 tolerance that groups them *)
let spectrum rng n =
  if Rng.bool rng then Array.init n (fun _ -> Rng.gaussian rng)
  else
    Array.init n (fun _ ->
        Rng.pick rng [ -1.0; 0.5; 2.0 ] +. Rng.pick rng [ 0.0; 0.0; 3e-8; 3e-7 ])

(* a commuting symmetric pair of size n: a shared random eigenbasis, or
   exactly diagonal matrices *)
let commuting_pair rng n =
  if Rng.int rng 4 = 0 then
    let diag s = Array.init n (fun i -> Array.init n (fun j -> if i = j then s.(i) else 0.0)) in
    (diag (spectrum rng n), diag (spectrum rng n))
  else
    let p = snd (Ref_eig.jacobi (random_symmetric rng n)) in
    (with_spectrum p (spectrum rng n), with_spectrum p (spectrum rng n))

(* the pair Weyl.decompose hands over: the real and imaginary parts of
   m^T m, m the input in the magic basis; locally equivalent to CX, CZ or
   SWAP, or a product of 1q gates, its spectrum is degenerate *)
let kak_pair rng =
  let local () = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
  let u =
    match Rng.int rng 3 with
    | 0 -> Randmat.su4 rng
    | 1 ->
        let g = Rng.pick rng Qgate.Gate.[ CX; CZ; SWAP ] in
        Mat.mul (local ()) (Mat.mul (Qgate.Unitary.of_gate g) (local ()))
    | _ -> local ()
  in
  let e = Qpasses.Weyl.magic_basis in
  let m = Mat.mul (Mat.adjoint e) (Mat.mul u e) in
  let re, im = Weyl_ref.parts (Mat.mul (Mat.transpose m) m) in
  (unflat 4 re, unflat 4 im)

(* cases seen and cases whose reference split a degenerate eigenspace *)
let eig_cases = ref 0
let eig_degenerate_cases = ref 0

let eig_bits_props =
  let jacobi_bits =
    prop_bits ~name:"flat jacobi = row-array jacobi, bit for bit" ~count:300 (fun rng ->
        let n = 2 + Rng.int rng 5 in
        let a = if Rng.bool rng then random_symmetric rng n else fst (commuting_pair rng n) in
        let vals, v = Eig.jacobi (flat a) and vals', v' = Ref_eig.jacobi a in
        vec_bits vals vals' && sq_bits v v')
  in
  let simultaneous_bits =
    prop_bits ~name:"flat simultaneous_diagonalize = row-array, bit for bit" ~count:300
      (fun rng ->
        let a, b = if Rng.bool rng then kak_pair rng else commuting_pair rng (2 + Rng.int rng 5) in
        let before = !Ref_eig.degenerate_blocks in
        let p' = Ref_eig.simultaneous_diagonalize a b in
        incr eig_cases;
        if !Ref_eig.degenerate_blocks > before then incr eig_degenerate_cases;
        sq_bits (Eig.simultaneous_diagonalize (flat a) (flat b)) p')
  in
  (* the second property fails too when fewer than 1 case in 4 had a
     degenerate eigenspace: a generator that lost them would pass without
     exercising the block re-diagonalization *)
  let name, speed, run = QCheck_alcotest.to_alcotest simultaneous_bits in
  [
    QCheck_alcotest.to_alcotest jacobi_bits;
    ( name,
      speed,
      fun () ->
        eig_cases := 0;
        eig_degenerate_cases := 0;
        run ();
        check
          (Printf.sprintf "degenerate eigenspaces in %d of %d cases" !eig_degenerate_cases
             !eig_cases)
          true
          (!eig_degenerate_cases * 4 >= !eig_cases) );
  ]

(* every ordered choice of distinct qubits out of [0, n) *)
let rec qubit_orders n avail =
  List.concat_map
    (fun q ->
      let rest = List.filter (( <> ) q) avail in
      [ q ] :: List.map (fun o -> q :: o) (qubit_orders n rest))
    avail

let test_embed_bits () =
  let rng = Rng.create 99 in
  for n = 1 to 4 do
    List.iter
      (fun qs ->
        let k = List.length qs in
        let g = edge_mat rng (1 lsl k) (1 lsl k) in
        check
          (Printf.sprintf "embed n=%d [%s]" n (String.concat ";" (List.map string_of_int qs)))
          true
          (mat_bits (Qcircuit.Circuit.embed ~n g qs) (Ref.embed ~n g qs)))
      (qubit_orders n (List.init n Fun.id))
  done

(* ---------- QCheck properties ---------- *)

let qcheck_props =
  let gen_seed = QCheck.Gen.int_range 0 1_000_000 in
  let prop_unitary =
    QCheck.Test.make ~name:"random unitary is unitary" ~count:50
      (QCheck.make gen_seed) (fun seed ->
        let u = Randmat.unitary (Rng.create seed) 4 in
        Mat.is_unitary ~eps:1e-7 u)
  in
  let prop_det_su4 =
    QCheck.Test.make ~name:"su4 has det one" ~count:50 (QCheck.make gen_seed)
      (fun seed ->
        let u = Randmat.su4 (Rng.create seed) in
        Cx.approx ~eps:1e-6 (Mat.det u) Cx.one)
  in
  let prop_euler =
    QCheck.Test.make ~name:"zyz reconstructs" ~count:100 (QCheck.make gen_seed)
      (fun seed ->
        let u = Randmat.unitary (Rng.create seed) 2 in
        Mat.frobenius_distance u (Euler.zyz_to_mat (Euler.zyz_of_unitary u)) < 1e-7)
  in
  let prop_kron =
    QCheck.Test.make ~name:"kron_factor reconstructs" ~count:100
      (QCheck.make gen_seed) (fun seed ->
        let rng = Rng.create seed in
        let m = Mat.kron (Randmat.su2 rng) (Randmat.su2 rng) in
        match Kronfactor.kron_factor m with
        | Some (g, a, b) -> Mat.frobenius_distance m (Mat.scale g (Mat.kron a b)) < 1e-6
        | None -> false)
  in
  List.map QCheck_alcotest.to_alcotest [ prop_unitary; prop_det_su4; prop_euler; prop_kron ]

let () =
  Alcotest.run "mathkit"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity mul" `Quick test_mat_identity_mul;
          Alcotest.test_case "random unitary" `Quick test_mat_unitary_random;
          Alcotest.test_case "det identity" `Quick test_mat_det_identity;
          Alcotest.test_case "det unitary modulus" `Quick test_mat_det_unitary_modulus;
          Alcotest.test_case "det multiplicative" `Quick test_mat_det_multiplicative;
          Alcotest.test_case "kron shape" `Quick test_mat_kron_shape;
          Alcotest.test_case "kron mixed product" `Quick test_mat_kron_mixed_product;
          Alcotest.test_case "adjoint involution" `Quick test_mat_adjoint_involution;
          Alcotest.test_case "trace cyclic" `Quick test_mat_trace_cyclic;
          Alcotest.test_case "phase_to" `Quick test_mat_phase_to;
          Alcotest.test_case "phase eps" `Quick test_mat_phase_eps;
          Alcotest.test_case "embed = closure embed" `Quick test_embed_bits;
        ] );
      ( "eig",
        [
          Alcotest.test_case "jacobi eigenpairs" `Quick test_jacobi_diagonalizes;
          Alcotest.test_case "jacobi orthogonal" `Quick test_jacobi_orthogonal;
          Alcotest.test_case "simultaneous diag" `Quick test_simultaneous_diag;
        ] );
      ( "euler",
        [
          Alcotest.test_case "roundtrip" `Quick test_euler_roundtrip;
          Alcotest.test_case "special cases" `Quick test_euler_special_cases;
          Alcotest.test_case "u params" `Quick test_u_params;
        ] );
      ( "kronfactor",
        [
          Alcotest.test_case "roundtrip" `Quick test_kron_factor_roundtrip;
          Alcotest.test_case "rejects entangling" `Quick test_kron_factor_rejects;
        ] );
      ("properties", qcheck_props);
      ("bit identity", bit_identity_props @ eig_bits_props);
    ]
