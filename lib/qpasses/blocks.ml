open Qgate

type segment = Single of Qcircuit.Circuit.instr | Block of block
and block = { pair : int * int; ops : Qcircuit.Circuit.instr list }

(* Open block state per wire pair; blocks close whenever a foreign op
   touches one of their wires. *)
type open_block = { b_pair : int * int; mutable rev_ops : Qcircuit.Circuit.instr list }

let c_blocks = Qobs.counter "blocks.collected"
let c_singles = Qobs.counter "blocks.singles"

let collect c =
  let n = Qcircuit.Circuit.n_qubits c in
  let out = ref [] in
  (* wire state: open block the wire belongs to, or pending 1q gates not yet
     attached to any block *)
  let open_on : open_block option array = Array.make (max n 1) None in
  let pending : Qcircuit.Circuit.instr list array = Array.make (max n 1) [] in
  let close_block (b : open_block) =
    let lo, hi = b.b_pair in
    out := Block { pair = b.b_pair; ops = List.rev b.rev_ops } :: !out;
    open_on.(lo) <- None;
    open_on.(hi) <- None
  in
  let flush_wire q =
    (match open_on.(q) with Some b -> close_block b | None -> ());
    List.iter (fun i -> out := Single i :: !out) (List.rev pending.(q));
    pending.(q) <- []
  in
  let visit (i : Qcircuit.Circuit.instr) =
    match i.gate with
    | g when Gate.is_one_qubit g -> begin
        let q = List.hd i.qubits in
        match open_on.(q) with
        | Some b -> b.rev_ops <- i :: b.rev_ops
        | None -> pending.(q) <- i :: pending.(q)
      end
    | g when Gate.is_two_qubit g -> begin
        match i.qubits with
        | [ a; b ] -> begin
            let pair = (min a b, max a b) in
            match (open_on.(a), open_on.(b)) with
            | Some ba, Some bb when ba == bb && ba.b_pair = pair ->
                ba.rev_ops <- i :: ba.rev_ops
            | _ ->
                (match open_on.(a) with Some blk -> close_block blk | None -> ());
                (match open_on.(b) with Some blk -> close_block blk | None -> ());
                (* absorb pending 1q gates (circuit order) ahead of the 2q gate *)
                let initial = List.rev pending.(a) @ List.rev pending.(b) in
                let blk = { b_pair = pair; rev_ops = i :: List.rev initial } in
                pending.(a) <- [];
                pending.(b) <- [];
                open_on.(a) <- Some blk;
                open_on.(b) <- Some blk
          end
        | _ -> assert false
      end
    | _ ->
        (* directives and >2q gates break blocks on every touched wire *)
        List.iter flush_wire i.qubits;
        out := Single i :: !out
  in
  List.iter visit (Qcircuit.Circuit.instrs c);
  for q = 0 to n - 1 do
    flush_wire q
  done;
  let segments = List.rev !out in
  if Qobs.active () then begin
    Qobs.add c_blocks
      (List.length (List.filter (function Block _ -> true | Single _ -> false) segments));
    Qobs.add c_singles
      (List.length (List.filter (function Single _ -> true | Block _ -> false) segments))
  end;
  segments

let unitary ~zero gate qubits ops =
  let local q = if q = zero then 0 else 1 in
  List.fold_left
    (fun acc op ->
      Mathkit.Mat.mul
        (Qcircuit.Circuit.embed ~n:2 (Unitary.of_gate (gate op)) (List.map local (qubits op)))
        acc)
    (Mathkit.Mat.identity 4) ops

let to_circuit n segments =
  let instrs =
    List.concat_map
      (function Single i -> [ i ] | Block b -> b.ops)
      segments
  in
  Qcircuit.Circuit.create n instrs

let gate_cx_cost (g : Gate.t) =
  match g with
  | Gate.CX -> 1
  | Gate.SWAP -> 3
  | Gate.Unitary2 m -> Weyl.cnot_cost m
  | g when Gate.is_two_qubit g ->
      let lowered = Decompose.to_cx_basis [ (g, [ 0; 1 ]) ] in
      List.length (List.filter (fun (x, _) -> x = Gate.CX) lowered)
  | _ -> 0

let signature ~zero gate qubits ops =
  let buf = Buffer.create 64 in
  List.iter
    (fun op ->
      Gate.add_signature buf (gate op);
      List.iter (fun q -> Buffer.add_char buf (if q = zero then '\000' else '\001')) (qubits op);
      Buffer.add_char buf '\255')
    ops;
  Buffer.contents buf

let ops_cx_cost ops =
  List.fold_left (fun acc (i : Qcircuit.Circuit.instr) -> acc + gate_cx_cost i.gate) 0 ops

let block_cx_cost b = ops_cx_cost b.ops
