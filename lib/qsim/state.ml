open Mathkit
open Qgate

type t = { n : int; re : float array; im : float array }

let create n =
  if n < 1 || n > 24 then invalid_arg "State.create: supported range is 1..24 qubits";
  let dim = 1 lsl n in
  let re = Array.make dim 0.0 and im = Array.make dim 0.0 in
  re.(0) <- 1.0;
  { n; re; im }

let n_qubits s = s.n
let copy s = { s with re = Array.copy s.re; im = Array.copy s.im }

(* bit position of qubit q (qubit 0 = most significant) *)
let bitpos s q = s.n - 1 - q

let apply_1q s u q =
  let b = bitpos s q in
  let mask = 1 lsl b in
  let dim = 1 lsl s.n in
  let u00 = Mat.get u 0 0 and u01 = Mat.get u 0 1 in
  let u10 = Mat.get u 1 0 and u11 = Mat.get u 1 1 in
  let a_re = u00.Complex.re and a_im = u00.Complex.im in
  let b_re = u01.Complex.re and b_im = u01.Complex.im in
  let c_re = u10.Complex.re and c_im = u10.Complex.im in
  let d_re = u11.Complex.re and d_im = u11.Complex.im in
  let i = ref 0 in
  while !i < dim do
    if !i land mask = 0 then begin
      let j = !i lor mask in
      let xr = s.re.(!i) and xi = s.im.(!i) in
      let yr = s.re.(j) and yi = s.im.(j) in
      s.re.(!i) <- (a_re *. xr) -. (a_im *. xi) +. (b_re *. yr) -. (b_im *. yi);
      s.im.(!i) <- (a_re *. xi) +. (a_im *. xr) +. (b_re *. yi) +. (b_im *. yr);
      s.re.(j) <- (c_re *. xr) -. (c_im *. xi) +. (d_re *. yr) -. (d_im *. yi);
      s.im.(j) <- (c_re *. xi) +. (c_im *. xr) +. (d_re *. yi) +. (d_im *. yr)
    end;
    incr i
  done

let apply_cx s c t =
  let bc = bitpos s c and bt = bitpos s t in
  let mc = 1 lsl bc and mt = 1 lsl bt in
  let dim = 1 lsl s.n in
  let i = ref 0 in
  while !i < dim do
    (* swap amplitudes of |c=1,t=0> and |c=1,t=1> *)
    if !i land mc <> 0 && !i land mt = 0 then begin
      let j = !i lor mt in
      let tr = s.re.(!i) and ti = s.im.(!i) in
      s.re.(!i) <- s.re.(j);
      s.im.(!i) <- s.im.(j);
      s.re.(j) <- tr;
      s.im.(j) <- ti
    end;
    incr i
  done

(* generic k-qubit kernel *)
let apply_generic s u qs =
  let k = List.length qs in
  let bits = Array.of_list (List.map (bitpos s) qs) in
  let dim = 1 lsl s.n in
  let sub = 1 lsl k in
  let qmask = Array.fold_left (fun acc b -> acc lor (1 lsl b)) 0 bits in
  let gather = Array.make sub 0 in
  (* local index l: bit (k-1-pos) corresponds to qs[pos] (qubit order, first
     qubit most significant locally) *)
  let idx_of base l =
    let x = ref base in
    for pos = 0 to k - 1 do
      if (l lsr (k - 1 - pos)) land 1 = 1 then x := !x lor (1 lsl bits.(pos))
    done;
    !x
  in
  let tmp_re = Array.make sub 0.0 and tmp_im = Array.make sub 0.0 in
  let base = ref 0 in
  while !base < dim do
    if !base land qmask = 0 then begin
      for l = 0 to sub - 1 do
        gather.(l) <- idx_of !base l
      done;
      for r = 0 to sub - 1 do
        let acc_re = ref 0.0 and acc_im = ref 0.0 in
        for ccol = 0 to sub - 1 do
          let m = Mat.get u r ccol in
          let vr = s.re.(gather.(ccol)) and vi = s.im.(gather.(ccol)) in
          acc_re := !acc_re +. (m.Complex.re *. vr) -. (m.Complex.im *. vi);
          acc_im := !acc_im +. (m.Complex.re *. vi) +. (m.Complex.im *. vr)
        done;
        tmp_re.(r) <- !acc_re;
        tmp_im.(r) <- !acc_im
      done;
      for r = 0 to sub - 1 do
        s.re.(gather.(r)) <- tmp_re.(r);
        s.im.(gather.(r)) <- tmp_im.(r)
      done
    end;
    incr base
  done

let apply_gate s (g : Gate.t) qs =
  match (g, qs) with
  | Gate.Measure, _ -> invalid_arg "State.apply_gate: measure is handled by sampling"
  | Gate.Barrier _, _ | Gate.Id, _ -> ()
  | Gate.CX, [ c; t ] -> apply_cx s c t
  | g, [ q ] -> apply_1q s (Unitary.of_gate g) q
  | g, qs -> apply_generic s (Unitary.of_gate g) qs

let apply_circuit s c =
  if Qcircuit.Circuit.n_qubits c <> s.n then
    invalid_arg "State.apply_circuit: qubit-count mismatch";
  List.iter
    (fun (i : Qcircuit.Circuit.instr) ->
      match i.gate with
      | Gate.Measure | Gate.Barrier _ -> ()
      | g -> apply_gate s g i.qubits)
    (Qcircuit.Circuit.instrs c)

let amplitude s idx = Cx.make s.re.(idx) s.im.(idx)
let probability s idx = (s.re.(idx) *. s.re.(idx)) +. (s.im.(idx) *. s.im.(idx))

let norm s =
  let acc = ref 0.0 in
  for i = 0 to (1 lsl s.n) - 1 do
    acc := !acc +. probability s i
  done;
  sqrt !acc

let sample s rng =
  let r = Rng.float rng 1.0 in
  let acc = ref 0.0 and out = ref 0 in
  (try
     for i = 0 to (1 lsl s.n) - 1 do
       acc := !acc +. probability s i;
       if !acc >= r then begin
         out := i;
         raise Exit
       end
     done;
     out := (1 lsl s.n) - 1
   with Exit -> ());
  !out

let most_likely s =
  let best = ref 0 in
  for i = 1 to (1 lsl s.n) - 1 do
    if probability s i > probability s !best then best := i
  done;
  !best
