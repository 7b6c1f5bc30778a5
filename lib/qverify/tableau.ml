module P = Pauli

type t = { n : int; rx : P.t array; rz : P.t array }

type gate = X | Y | Z | H | S | Sdg | SX | SXdg | SY | SYdg | CX | CY | CZ | SWAP

let create n =
  {
    n;
    rx = Array.init n (fun w -> P.single ~n w 1);
    rz = Array.init n (fun w -> P.single ~n w 2);
  }

let n_wires t = t.n
let row_x t w = t.rx.(w)
let row_z t w = t.rz.(w)

(* r(Y_w) = i r(X_w) r(Z_w), from Y = iXZ *)
let y_img t w = P.mul_phase (P.mul t.rx.(w) t.rz.(w)) 1

(* Every arm rewrites the rows with [row'(P) = row(g^dag P g)], the local
   inverse-conjugation identities spelled out per gate (derived from the
   usual forward tables; e.g. S X S^dag = Y gives S^dag X S = -Y). *)
let apply t g qs =
  match (g, qs) with
  | X, [ q ] -> t.rz.(q) <- P.neg t.rz.(q)
  | Y, [ q ] ->
      t.rx.(q) <- P.neg t.rx.(q);
      t.rz.(q) <- P.neg t.rz.(q)
  | Z, [ q ] -> t.rx.(q) <- P.neg t.rx.(q)
  | H, [ q ] ->
      let ox = t.rx.(q) in
      t.rx.(q) <- t.rz.(q);
      t.rz.(q) <- ox
  | S, [ q ] -> t.rx.(q) <- P.neg (y_img t q) (* X -> -Y, Z fixed *)
  | Sdg, [ q ] -> t.rx.(q) <- y_img t q
  | SX, [ q ] -> t.rz.(q) <- y_img t q (* Z -> Y, X fixed *)
  | SXdg, [ q ] -> t.rz.(q) <- P.neg (y_img t q)
  | SY, [ q ] ->
      (* X -> Z, Z -> -X *)
      let ox = t.rx.(q) in
      t.rx.(q) <- t.rz.(q);
      t.rz.(q) <- P.neg ox
  | SYdg, [ q ] ->
      let ox = t.rx.(q) in
      t.rx.(q) <- P.neg t.rz.(q);
      t.rz.(q) <- ox
  | CX, [ c; tq ] ->
      let nxc = P.mul t.rx.(c) t.rx.(tq) and nzt = P.mul t.rz.(c) t.rz.(tq) in
      t.rx.(c) <- nxc;
      t.rz.(tq) <- nzt
  | CZ, [ c; tq ] ->
      let nxc = P.mul t.rx.(c) t.rz.(tq) and nxt = P.mul t.rz.(c) t.rx.(tq) in
      t.rx.(c) <- nxc;
      t.rx.(tq) <- nxt
  | CY, [ c; tq ] ->
      let nxc = P.mul t.rx.(c) (y_img t tq)
      and nxt = P.mul t.rz.(c) t.rx.(tq)
      and nzt = P.mul t.rz.(c) t.rz.(tq) in
      t.rx.(c) <- nxc;
      t.rx.(tq) <- nxt;
      t.rz.(tq) <- nzt
  | SWAP, [ a; b ] ->
      let xa = t.rx.(a) and za = t.rz.(a) in
      t.rx.(a) <- t.rx.(b);
      t.rz.(a) <- t.rz.(b);
      t.rx.(b) <- xa;
      t.rz.(b) <- za
  | _ -> invalid_arg "Tableau.apply: gate arity mismatch"

let image_local t codes =
  List.fold_left
    (fun acc (w, c) ->
      let f =
        match c with
        | 1 -> t.rx.(w)
        | 2 -> t.rz.(w)
        | 3 -> y_img t w
        | _ -> invalid_arg "Tableau.image_local: bad code"
      in
      P.mul acc f)
    (P.identity t.n) codes

let image t p =
  let codes = List.map (fun w -> (w, P.code p w)) (P.support p) in
  P.mul_phase (image_local t codes) (P.phase p)

(* Rewrite one row under conjugation by exp(-i (k pi/2)/2 S) given that the
   row anticommutes with S: row e^{-i theta S} = row cos theta - i sin theta
   row.S, so k=2 negates, k=1 is -i row.S, k=3 is +i row.S.  The same
   identity serves both fold directions (left fold passes the *image* of the
   local axis and selects rows by local anticommutation with the axis; right
   fold passes the frame-side string and tests the full symplectic form). *)
let folded_row ~quarters row s =
  match quarters with
  | 2 -> P.neg row
  | 1 -> P.mul_phase (P.mul row s) 3
  | 3 -> P.mul_phase (P.mul row s) 1
  | _ -> invalid_arg "Tableau.fold: quarters must be 1, 2 or 3"

let fold_local t ~quarters codes =
  let s = image_local t codes in
  List.iter
    (fun (w, c) ->
      (* generator X_w anticommutes with the axis iff the axis letter on w
         is Z or Y; Z_w iff it is X or Y *)
      if c = 2 || c = 3 then t.rx.(w) <- folded_row ~quarters t.rx.(w) s;
      if c = 1 || c = 3 then t.rz.(w) <- folded_row ~quarters t.rz.(w) s)
    codes

let fold_frame t ~quarters s =
  for w = 0 to t.n - 1 do
    if not (P.commutes t.rx.(w) s) then t.rx.(w) <- folded_row ~quarters t.rx.(w) s;
    if not (P.commutes t.rz.(w) s) then t.rz.(w) <- folded_row ~quarters t.rz.(w) s
  done

let permutation n row =
  let tau = Array.make n (-1) in
  let rec pairs w =
    if w = n then None
    else
      let rx, rz = row w in
      match (P.phase rx, P.support rx, P.phase rz, P.support rz) with
      | 0, [ u ], 0, [ v ] when u = v && P.code rx u = 1 && P.code rz v = 2 ->
          tau.(w) <- u;
          pairs (w + 1)
      | _ -> Some w
  in
  match pairs 0 with
  | Some w -> Error w
  | None ->
      let seen = Array.make n false in
      let injective =
        Array.for_all
          (fun u ->
            let fresh = not seen.(u) in
            seen.(u) <- true;
            fresh)
          tau
      in
      if injective then Ok tau else Error 0

let map_rows t f =
  for w = 0 to t.n - 1 do
    t.rx.(w) <- f t.rx.(w);
    t.rz.(w) <- f t.rz.(w)
  done
