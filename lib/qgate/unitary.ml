open Mathkit

let half = 1.0 /. sqrt 2.0

let h_mat = Mat.of_real_rows [ [ half; half ]; [ half; -.half ] ]
let x_mat = Mat.of_real_rows [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ]

let y_mat =
  Mat.of_rows [ [ Cx.zero; Cx.im (-1.0) ]; [ Cx.im 1.0; Cx.zero ] ]

let z_mat = Mat.of_real_rows [ [ 1.0; 0.0 ]; [ 0.0; -1.0 ] ]

let p_mat l = Mat.of_rows [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.exp_i l ] ]

let sx_mat =
  (* sqrt(X): ((1+i)/2) [[1, -i], [-i, 1]] scaled properly *)
  let a = Cx.make 0.5 0.5 and b = Cx.make 0.5 (-0.5) in
  Mat.of_rows [ [ a; b ]; [ b; a ] ]

let sxdg_mat = Mat.adjoint sx_mat

(* Two-qubit controlled gate with control = most significant qubit. *)
let controlled u2 =
  Mat.init 4 4 (fun i j ->
      if i < 2 && j < 2 then if i = j then Cx.one else Cx.zero
      else if i >= 2 && j >= 2 then Mat.get u2 (i - 2) (j - 2)
      else Cx.zero)

let swap_mat =
  Mat.of_real_rows
    [
      [ 1.0; 0.0; 0.0; 0.0 ];
      [ 0.0; 0.0; 1.0; 0.0 ];
      [ 0.0; 1.0; 0.0; 0.0 ];
      [ 0.0; 0.0; 0.0; 1.0 ];
    ]

let cnot_rev =
  Mat.of_real_rows
    [
      [ 1.0; 0.0; 0.0; 0.0 ];
      [ 0.0; 0.0; 0.0; 1.0 ];
      [ 0.0; 0.0; 1.0; 0.0 ];
      [ 0.0; 1.0; 0.0; 0.0 ];
    ]

let rzz_mat a =
  let e_m = Cx.exp_i (-.a /. 2.0) and e_p = Cx.exp_i (a /. 2.0) in
  Mat.init 4 4 (fun i j ->
      if i <> j then Cx.zero else if i = 0 || i = 3 then e_m else e_p)

let permutation_mat n perm =
  Mat.init n n (fun i j -> if i = perm j then Cx.one else Cx.zero)

(* Multi-controlled X on k+1 qubits; target is the LEAST significant bit
   (the last qubit in the instruction's qubit list). *)
let mcx_mat k =
  let n = 1 lsl (k + 1) in
  let ctrl_mask = n - 2 in
  permutation_mat n (fun j -> if j land ctrl_mask = ctrl_mask then j lxor 1 else j)

let mcz_mat k =
  let n = 1 lsl (k + 1) in
  Mat.init n n (fun i j ->
      if i <> j then Cx.zero else if i = n - 1 then Cx.minus_one else Cx.one)

let of_gate (g : Gate.t) =
  match g with
  | Id -> Mat.identity 2
  | X -> x_mat
  | Y -> y_mat
  | Z -> z_mat
  | H -> h_mat
  | S -> p_mat (Float.pi /. 2.0)
  | Sdg -> p_mat (-.Float.pi /. 2.0)
  | T -> p_mat (Float.pi /. 4.0)
  | Tdg -> p_mat (-.Float.pi /. 4.0)
  | SX -> sx_mat
  | SXdg -> sxdg_mat
  | RX a -> Euler.rx_mat a
  | RY a -> Euler.ry_mat a
  | RZ a -> Euler.rz_mat a
  | P l -> p_mat l
  | U (t, p, l) -> Euler.u_mat t p l
  | CX -> controlled x_mat
  | CY -> controlled y_mat
  | CZ -> controlled z_mat
  | CH -> controlled h_mat
  | SWAP -> swap_mat
  | CRX a -> controlled (Euler.rx_mat a)
  | CRY a -> controlled (Euler.ry_mat a)
  | CRZ a -> controlled (Euler.rz_mat a)
  | CP l -> controlled (p_mat l)
  | RZZ a -> rzz_mat a
  | CCX -> mcx_mat 2
  | CCZ -> mcz_mat 2
  | CSWAP ->
      (* control = bit 2, swap bits 1 and 0 *)
      permutation_mat 8 (fun j ->
          if j land 4 = 0 then j
          else (j land 4) lor ((j land 1) lsl 1) lor ((j land 2) lsr 1))
  | MCX k -> mcx_mat k
  | MCZ k -> mcz_mat k
  | Unitary2 m -> m
  | Barrier _ | Measure -> invalid_arg "Unitary.of_gate: directive has no unitary"
