type node = {
  id : int;
  gate : Qgate.Gate.t;
  qubits : int list;
  preds : (int * int) list;
  succs : (int * int) list;
}

type t = { n : int; arr : node array }

let of_circuit c =
  let instrs = Array.of_list (Circuit.instrs c) in
  let n = Circuit.n_qubits c in
  let last = Array.make n (-1) in
  let preds = Array.make (Array.length instrs) [] in
  let succs = Array.make (Array.length instrs) [] in
  Array.iteri
    (fun id (i : Circuit.instr) ->
      List.iter
        (fun q ->
          if last.(q) >= 0 then begin
            preds.(id) <- (q, last.(q)) :: preds.(id);
            succs.(last.(q)) <- (q, id) :: succs.(last.(q))
          end;
          last.(q) <- id)
        i.qubits)
    instrs;
  let arr =
    Array.mapi
      (fun id (i : Circuit.instr) ->
        { id; gate = i.gate; qubits = i.qubits; preds = List.rev preds.(id); succs = List.rev succs.(id) })
      instrs
  in
  { n; arr }

let n_qubits d = d.n
let n_nodes d = Array.length d.arr
let node d i = d.arr.(i)
let nodes d = d.arr

let to_circuit d =
  Circuit.create d.n
    (Array.to_list (Array.map (fun nd -> { Circuit.gate = nd.gate; qubits = nd.qubits }) d.arr))
