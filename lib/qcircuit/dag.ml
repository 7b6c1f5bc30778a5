type node = {
  id : int;
  gate : Qgate.Gate.t;
  qubits : int list;
  preds : (int * int) list;
  succs : (int * int) list;
}

type t = {
  n : int;
  arr : node array;
  pred_cache : int list array;  (** distinct predecessor ids, by node id *)
  succ_cache : int list array;
}

let distinct l = List.sort_uniq compare l

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
  (* the traversal hot path asks for distinct pred/succ ids once per BFS
     visit; computing the sort_uniq once per node here instead makes those
     lookups allocation-free *)
  let pred_cache = Array.map (fun nd -> distinct (List.map snd nd.preds)) arr in
  let succ_cache = Array.map (fun nd -> distinct (List.map snd nd.succs)) arr in
  { n; arr; pred_cache; succ_cache }

let n_qubits d = d.n
let n_nodes d = Array.length d.arr
let node d i = d.arr.(i)
let nodes d = d.arr

let to_circuit d =
  Circuit.create d.n
    (Array.to_list (Array.map (fun nd -> { Circuit.gate = nd.gate; qubits = nd.qubits }) d.arr))

let pred_on d id q = List.assoc_opt q d.arr.(id).preds
let succ_on d id q = List.assoc_opt q d.arr.(id).succs

let first_on_wire d q =
  let best = ref None in
  Array.iter
    (fun nd ->
      if !best = None && List.mem q nd.qubits && List.assoc_opt q nd.preds = None then
        best := Some nd.id)
    d.arr;
  !best

let pred_ids d id = d.pred_cache.(id)
let succ_ids d id = d.succ_cache.(id)

let retire front id promoted =
  let rec go = function
    | [] -> promoted
    | x :: tl when x = id -> if promoted = [] then tl else tl @ promoted
    | x :: tl -> x :: go tl
  in
  go front

module Traversal = struct
  type dag = t

  type t = {
    dag : dag;
    indeg : int array;
    done_ : bool array;
    mutable front_ : int list;
    mutable n_done : int;
    mutable la_cache : (int * int * int list) option;
        (** (n_done, k, result) of the last lookahead; the BFS reads only
            [front_] and [done_], both mutated solely by [execute], so
            between executions the cached result is exact.  The routers call
            lookahead once per SWAP insertion while the front is stuck, so
            this collapses a BFS per step into one per front change. *)
    la_seen : int array;  (** epoch stamps replacing a per-BFS hashtable *)
    mutable la_epoch : int;
    mutable la_queue : int array;  (** FIFO scratch; grown on demand *)
  }

  let create dag =
    let n = Array.length dag.arr in
    let indeg = Array.map (fun nd -> List.length dag.pred_cache.(nd.id)) dag.arr in
    let front_ = ref [] in
    Array.iteri (fun i d -> if d = 0 then front_ := i :: !front_) indeg;
    {
      dag;
      indeg;
      done_ = Array.make n false;
      front_ = List.rev !front_;
      n_done = 0;
      la_cache = None;
      la_seen = Array.make n 0;
      la_epoch = 0;
      la_queue = Array.make (max 16 (4 * n)) 0;
    }

  let front t = t.front_

  (* a node is on the front iff it is unexecuted with indegree 0, so
     readiness is two array reads, not a walk of the front *)
  let execute t id =
    if id < 0 || id >= Array.length t.done_ || t.done_.(id) || t.indeg.(id) <> 0 then
      invalid_arg "Dag.Traversal.execute: node not ready";
    t.done_.(id) <- true;
    t.n_done <- t.n_done + 1;
    let promoted = ref [] in
    List.iter
      (fun s ->
        t.indeg.(s) <- t.indeg.(s) - 1;
        if t.indeg.(s) = 0 then promoted := s :: !promoted)
      (succ_ids t.dag id);
    t.front_ <- retire t.front_ id (List.rev !promoted)

  let finished t = t.n_done = Array.length t.dag.arr
  let executed_count t = t.n_done

  let lookahead t k =
    match t.la_cache with
    | Some (d, k', ids) when d = t.n_done && k' = k -> ids
    | _ ->
        (* BFS forward from the front layer, collecting 2q gates in
           dependency order, without mutating traversal state.  Epoch-stamped
           [la_seen] and the [la_queue] scratch replace a per-call hashtable
           and queue; visiting order (append / pop-head) is unchanged. *)
        t.la_epoch <- t.la_epoch + 1;
        let ep = t.la_epoch in
        let head = ref 0 and tail = ref 0 in
        let push id =
          if !tail = Array.length t.la_queue then begin
            let q' = Array.make ((2 * Array.length t.la_queue) + 4) 0 in
            Array.blit t.la_queue 0 q' 0 !tail;
            t.la_queue <- q'
          end;
          t.la_queue.(!tail) <- id;
          incr tail
        in
        let out = ref [] in
        let count = ref 0 in
        List.iter (fun id -> List.iter push (succ_ids t.dag id)) t.front_;
        while !count < k && !head < !tail do
          let id = t.la_queue.(!head) in
          incr head;
          if t.la_seen.(id) <> ep then begin
            t.la_seen.(id) <- ep;
            let nd = t.dag.arr.(id) in
            if (not t.done_.(id)) && Qgate.Gate.is_two_qubit nd.gate then begin
              out := id :: !out;
              incr count
            end;
            List.iter push (succ_ids t.dag id)
          end
        done;
        let ids = List.rev !out in
        t.la_cache <- Some (t.n_done, k, ids);
        ids
end
