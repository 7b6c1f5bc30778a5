open Qcircuit

let c_considered = Qobs.counter "synth.blocks_considered"
let c_accepted = Qobs.counter "synth.blocks_resynthesized"

let resynth_gain b =
  let current = Blocks.block_cx_cost b in
  let optimal = Weyl.cnot_cost (Blocks.block_unitary b) in
  max 0 (current - optimal)

(* What the pass does with one block: keep its ops, or replace them by the
   synthesized body, held on local qubits (0 = low wire, 1 = high wire). *)
type decision = Keep | Replace of Circuit.instr list

let decide (b : Blocks.block) =
  let replacement =
    List.map
      (fun (g, qs) -> { Circuit.gate = g; qubits = qs })
      (Synth2q.synthesize (Blocks.block_unitary b))
  in
  let old_cx = Blocks.block_cx_cost b and new_cx = Blocks.ops_cx_cost replacement in
  if new_cx < old_cx || (new_cx = old_cx && List.length replacement < List.length b.ops)
  then Replace replacement
  else Keep

(* the decision reads only the block's local unitary, CX cost and op
   count, so blocks with equal signatures get equal decisions *)
let signature (b : Blocks.block) =
  let buf = Buffer.create 64 in
  List.iter
    (fun (i : Circuit.instr) -> Blocks.add_op_signature buf ~zero:(fst b.pair) i.gate i.qubits)
    b.ops;
  Buffer.contents buf

let run c =
  let memo = Hashtbl.create 256 in
  let improve = function
    | Blocks.Single i -> [ i ]
    | Blocks.Block b -> (
        Qobs.incr c_considered;
        let key = signature b in
        let d =
          match Hashtbl.find_opt memo key with
          | Some d -> d
          | None ->
              let d = decide b in
              Hashtbl.add memo key d;
              d
        in
        match d with
        | Keep -> b.ops
        | Replace local ->
            Qobs.incr c_accepted;
            let lo, hi = b.pair in
            List.map
              (fun (i : Circuit.instr) ->
                { i with qubits = List.map (fun q -> if q = 0 then lo else hi) i.qubits })
              local)
  in
  Circuit.create (Circuit.n_qubits c) (List.concat_map improve (Blocks.collect c))
