(* Entry (i, j) of an r x c matrix lives at m.(2k) (real part) and m.(2k+1)
   (imaginary part) with k = i*c + j.  Every kernel performs the float
   operations of the [Stdlib.Complex] expression it replaces, in the same
   order, so results are bit-identical to a [Complex.t array] matrix. *)
type t = { r : int; c : int; m : Float.Array.t }

let rows a = a.r
let storage a = a.m
let cols a = a.c
let zeros r c = { r; c; m = Float.Array.make (2 * r * c) 0.0 }

let set_at m k (v : Cx.t) =
  Float.Array.set m (2 * k) v.re;
  Float.Array.set m ((2 * k) + 1) v.im

let init r c f =
  let a = zeros r c in
  for k = 0 to (r * c) - 1 do
    set_at a.m k (f (k / c) (k mod c))
  done;
  a

let make r c v = init r c (fun _ _ -> v)
let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)

let of_rows rows_ =
  match rows_ with
  | [] -> invalid_arg "Mat.of_rows: empty"
  | first :: _ ->
      let c = List.length first in
      let r = List.length rows_ in
      if List.exists (fun row -> List.length row <> c) rows_ then
        invalid_arg "Mat.of_rows: ragged rows";
      let a = zeros r c in
      List.iteri (fun i row -> List.iteri (fun j v -> set_at a.m ((i * c) + j) v) row) rows_;
      a

let of_real_rows rows_ = of_rows (List.map (List.map Cx.re) rows_)

let of_real r c p =
  let a = zeros r c in
  for k = 0 to (r * c) - 1 do
    Float.Array.set a.m (2 * k) (Float.Array.get p k)
  done;
  a

let diag_phases angles =
  let n = Array.length angles in
  let a = zeros n n in
  for i = 0 to n - 1 do
    let k = 2 * ((i * n) + i) in
    Float.Array.set a.m k (cos angles.(i));
    Float.Array.set a.m (k + 1) (sin angles.(i))
  done;
  a

let gather r c f src =
  let a = zeros r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      let s = f i j in
      if s >= 0 then begin
        let k = 2 * ((i * c) + j) in
        Float.Array.set a.m k (Float.Array.get src.m (2 * s));
        Float.Array.set a.m (k + 1) (Float.Array.get src.m ((2 * s) + 1))
      end
    done
  done;
  a

let get a i j =
  let k = 2 * ((i * a.c) + j) in
  { Complex.re = Float.Array.get a.m k; im = Float.Array.get a.m (k + 1) }

let set a i j v = set_at a.m ((i * a.c) + j) v
let copy a = { a with m = Float.Array.copy a.m }

let same_shape a b op =
  if a.r <> b.r || a.c <> b.c then invalid_arg ("Mat." ^ op ^ ": shape mismatch")

let add a b =
  same_shape a b "add";
  let o = zeros a.r a.c in
  for k = 0 to Float.Array.length a.m - 1 do
    Float.Array.set o.m k (Float.Array.get a.m k +. Float.Array.get b.m k)
  done;
  o

let sub a b =
  same_shape a b "sub";
  let o = zeros a.r a.c in
  for k = 0 to Float.Array.length a.m - 1 do
    Float.Array.set o.m k (Float.Array.get a.m k -. Float.Array.get b.m k)
  done;
  o

let scale (z : Cx.t) a =
  let o = zeros a.r a.c in
  for k = 0 to (a.r * a.c) - 1 do
    let vre = Float.Array.get a.m (2 * k) and vim = Float.Array.get a.m ((2 * k) + 1) in
    Float.Array.set o.m (2 * k) ((z.re *. vre) -. (z.im *. vim));
    Float.Array.set o.m ((2 * k) + 1) ((z.re *. vim) +. (z.im *. vre))
  done;
  o

(* Exactly-zero left entries (either sign, as [Cx.is_zero ~eps:0.0]) are
   skipped; each product is added to the running entry as [cur + (a*b)]. *)
let mul a b =
  if a.c <> b.r then invalid_arg "Mat.mul: shape mismatch";
  let o = zeros a.r b.c in
  let am = a.m and bm = b.m and om = o.m in
  for i = 0 to a.r - 1 do
    for k = 0 to a.c - 1 do
      let p = 2 * ((i * a.c) + k) in
      let are = Float.Array.get am p and aim = Float.Array.get am (p + 1) in
      if not (Float.abs are <= 0.0 && Float.abs aim <= 0.0) then
        for j = 0 to b.c - 1 do
          let q = 2 * ((k * b.c) + j) and s = 2 * ((i * b.c) + j) in
          let bre = Float.Array.get bm q and bim = Float.Array.get bm (q + 1) in
          Float.Array.set om s (Float.Array.get om s +. ((are *. bre) -. (aim *. bim)));
          Float.Array.set om (s + 1) (Float.Array.get om (s + 1) +. ((are *. bim) +. (aim *. bre)))
        done
    done
  done;
  o

let kron a b =
  let r = a.r * b.r and c = a.c * b.c in
  let o = zeros r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      let p = 2 * (((i / b.r) * a.c) + (j / b.c))
      and q = 2 * (((i mod b.r) * b.c) + (j mod b.c)) in
      let xre = Float.Array.get a.m p and xim = Float.Array.get a.m (p + 1) in
      let yre = Float.Array.get b.m q and yim = Float.Array.get b.m (q + 1) in
      let k = 2 * ((i * c) + j) in
      Float.Array.set o.m k ((xre *. yre) -. (xim *. yim));
      Float.Array.set o.m (k + 1) ((xre *. yim) +. (xim *. yre))
    done
  done;
  o

let transpose_with ~conj a =
  let o = zeros a.c a.r in
  for i = 0 to a.c - 1 do
    for j = 0 to a.r - 1 do
      let s = 2 * ((j * a.c) + i) and k = 2 * ((i * a.r) + j) in
      let im = Float.Array.get a.m (s + 1) in
      Float.Array.set o.m k (Float.Array.get a.m s);
      Float.Array.set o.m (k + 1) (if conj then -.im else im)
    done
  done;
  o

let transpose a = transpose_with ~conj:false a
let adjoint a = transpose_with ~conj:true a
let conj a =
  let o = copy a in
  for k = 0 to (a.r * a.c) - 1 do
    Float.Array.set o.m ((2 * k) + 1) (-.Float.Array.get a.m ((2 * k) + 1))
  done;
  o

let trace a =
  let n = min a.r a.c in
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to n - 1 do
    let k = 2 * ((i * a.c) + i) in
    re := !re +. Float.Array.get a.m k;
    im := !im +. Float.Array.get a.m (k + 1)
  done;
  { Complex.re = !re; im = !im }

let det a =
  if a.r <> a.c then invalid_arg "Mat.det: not square";
  let n = a.r in
  let w = Float.Array.copy a.m in
  let at i j = 2 * ((i * n) + j) in
  let entry i j = { Complex.re = Float.Array.get w (at i j); im = Float.Array.get w (at i j + 1) } in
  let abs_at i j = Float.hypot (Float.Array.get w (at i j)) (Float.Array.get w (at i j + 1)) in
  let sign = ref 1.0 in
  let rre = ref 1.0 and rim = ref 0.0 in
  (try
     for col = 0 to n - 1 do
       (* partial pivot *)
       let pivot = ref col in
       for i = col + 1 to n - 1 do
         if abs_at i col > abs_at !pivot col then pivot := i
       done;
       if abs_at !pivot col < 1e-300 then begin
         rre := 0.0;
         rim := 0.0;
         raise Exit
       end;
       if !pivot <> col then begin
         sign := -. !sign;
         for x = at col 0 to at col (n - 1) + 1 do
           let y = x + at !pivot 0 - at col 0 in
           let tmp = Float.Array.get w x in
           Float.Array.set w x (Float.Array.get w y);
           Float.Array.set w y tmp
         done
       end;
       let d = entry col col in
       let re = (!rre *. d.re) -. (!rim *. d.im) and im = (!rre *. d.im) +. (!rim *. d.re) in
       rre := re;
       rim := im;
       for i = col + 1 to n - 1 do
         let f = Complex.div (entry i col) d in
         for j = col to n - 1 do
           let p = at col j and s = at i j in
           let pre = Float.Array.get w p and pim = Float.Array.get w (p + 1) in
           Float.Array.set w s (Float.Array.get w s -. ((f.re *. pre) -. (f.im *. pim)));
           Float.Array.set w (s + 1) (Float.Array.get w (s + 1) -. ((f.re *. pim) +. (f.im *. pre)))
         done
       done
     done
   with Exit -> ());
  { Complex.re = !sign *. !rre; im = !sign *. !rim }

let apply_vec a (v : Cx.t array) =
  if a.c <> Array.length v then invalid_arg "Mat.apply_vec: shape mismatch";
  Array.init a.r (fun i ->
      let re = ref 0.0 and im = ref 0.0 in
      for j = 0 to a.c - 1 do
        let k = 2 * ((i * a.c) + j) and y = v.(j) in
        let xre = Float.Array.get a.m k and xim = Float.Array.get a.m (k + 1) in
        re := !re +. ((xre *. y.re) -. (xim *. y.im));
        im := !im +. ((xre *. y.im) +. (xim *. y.re))
      done;
      { Complex.re = !re; im = !im })

(* [frobenius_distance a (scale z b)] without building [scale z b]. *)
let scaled_distance a (z : Cx.t) b =
  let acc = ref 0.0 in
  for k = 0 to (a.r * a.c) - 1 do
    let bre = Float.Array.get b.m (2 * k) and bim = Float.Array.get b.m ((2 * k) + 1) in
    let dre = Float.Array.get a.m (2 * k) -. ((z.re *. bre) -. (z.im *. bim))
    and dim = Float.Array.get a.m ((2 * k) + 1) -. ((z.re *. bim) +. (z.im *. bre)) in
    acc := !acc +. ((dre *. dre) +. (dim *. dim))
  done;
  sqrt !acc

let frobenius_distance a b =
  same_shape a b "frobenius_distance";
  let acc = ref 0.0 in
  for k = 0 to (a.r * a.c) - 1 do
    let dre = Float.Array.get a.m (2 * k) -. Float.Array.get b.m (2 * k)
    and dim = Float.Array.get a.m ((2 * k) + 1) -. Float.Array.get b.m ((2 * k) + 1) in
    acc := !acc +. ((dre *. dre) +. (dim *. dim))
  done;
  sqrt !acc

let approx_equal ?(eps = 1e-9) a b =
  a.r = b.r && a.c = b.c && frobenius_distance a b <= eps *. float_of_int (a.r * a.c)

let argmax_abs a =
  let abs_at k = Float.hypot (Float.Array.get a.m (2 * k)) (Float.Array.get a.m ((2 * k) + 1)) in
  let best = ref 0 and best_abs = ref (abs_at 0) in
  for k = 1 to (a.r * a.c) - 1 do
    let v = abs_at k in
    if v > !best_abs then begin
      best := k;
      best_abs := v
    end
  done;
  !best

let phase_to ?(eps = 1e-6) a b =
  if a.r <> b.r || a.c <> b.c then None
  else begin
    (* Use the largest entry of b as the phase reference to stay away from
       numerical noise. *)
    let best = argmax_abs b in
    let i = best / b.c and j = best mod b.c in
    let bb = get b i j in
    if Cx.abs bb < 1e-9 then if approx_equal a b then Some Cx.one else None
    else
      let z = Complex.div (get a i j) bb in
      if Float.abs (Cx.abs z -. 1.0) > eps then None
      else if scaled_distance a z b <= eps *. float_of_int (a.r * a.c) then Some z
      else None
  end

let equal_up_to_phase ?eps a b = Option.is_some (phase_to ?eps a b)

let is_unitary ?(eps = 1e-9) a =
  a.r = a.c && approx_equal ~eps (mul (adjoint a) a) (identity a.r)

let pp ppf a =
  Format.fprintf ppf "@[<v>";
  for i = 0 to a.r - 1 do
    Format.fprintf ppf "[";
    for j = 0 to a.c - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Cx.pp ppf (get a i j)
    done;
    Format.fprintf ppf "]";
    if i < a.r - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
