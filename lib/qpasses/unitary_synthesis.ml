open Qcircuit

let c_considered = Qobs.counter "synth.blocks_considered"
let c_accepted = Qobs.counter "synth.blocks_resynthesized"

(* What the pass does with one block: keep its ops, or replace them by the
   synthesized body, held on local qubits (0 = low wire, 1 = high wire).
   A replacement spends exactly [cls] CNOTs in at least [core_length cls]
   ops, so when the class alone shows it cannot win, it is not built. *)
type decision = Keep | Replace of Circuit.instr list

let keep_by_class ~cls ~cx ~ops = cls > cx || (cls = cx && ops <= Synth2q.core_length cls)

let gate (i : Circuit.instr) = i.gate
let qubits (i : Circuit.instr) = i.qubits

let decide (b : Blocks.block) =
  let ((_, cls) as k) = Synth2q.kak (Blocks.unitary ~zero:(fst b.pair) gate qubits b.ops) in
  let cx = Blocks.block_cx_cost b and ops = List.length b.ops in
  if keep_by_class ~cls ~cx ~ops then Keep
  else
    (* here cls <= cx: the replacement wins on CNOTs, or else on op count *)
    let replacement =
      List.map (fun (g, qs) -> { Circuit.gate = g; qubits = qs }) (Synth2q.of_kak k)
    in
    if cls < cx || List.length replacement < ops then Replace replacement else Keep

let run c =
  let memo = Hashtbl.create 256 in
  let improve = function
    | Blocks.Single i -> [ i ]
    | Blocks.Block b -> (
        Qobs.incr c_considered;
        (* the decision reads only the block's local unitary, CX cost and
           op count, so blocks with equal signatures get equal decisions *)
        let key = Blocks.signature ~zero:(fst b.pair) gate qubits b.ops in
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
