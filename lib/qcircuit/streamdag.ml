type node = {
  id : int;
  gate : Qgate.Gate.t;
  qubits : int list;
  mutable indeg : int;
  mutable succs : node list;  (* ascending id order; at most one per wire *)
  mutable executed : bool;
  mutable seen : int;  (* lookahead BFS epoch stamp *)
}

type t = {
  source : Source.t;
  n : int;
  window : int;
  wire : node option array;  (* latest admitted node per wire *)
  mutable resident : int;  (* admitted, unexecuted *)
  mutable next_id : int;
  mutable exhausted : bool;
  mutable front_ : node list;
  mutable n_exec : int;
  mutable peak : int;
  mutable epoch : int;
  mutable queue : node array;  (* lookahead BFS scratch, grown on demand *)
  mutable la_cache : (int * int * int * node list) option;
      (** (n_exec, next_id, k, result): admission extends succ lists, so
          the cache keys on the admission horizon as well as the executed
          count. *)
}

let front t = t.front_
let finished t = t.exhausted && t.resident = 0
let executed_count t = t.n_exec
let admitted_count t = t.next_id
let peak_resident t = t.peak
let id nd = nd.id
let gate nd = nd.gate
let qubits nd = nd.qubits

let admit_one t =
  match Source.pull t.source with
  | None ->
      t.exhausted <- true;
      false
  | Some (i : Circuit.instr) ->
      let g = i.gate in
      if Qgate.Gate.arity g > 2 && not (Qgate.Gate.is_directive g) then
        invalid_arg "Streamdag: lower gates to <=2 qubits before routing";
      List.iter
        (fun q ->
          if q < 0 || q >= t.n then invalid_arg "Streamdag: qubit out of range")
        i.qubits;
      let nd =
        { id = t.next_id; gate = g; qubits = i.qubits; indeg = 0; succs = [];
          executed = false; seen = 0 }
      in
      t.next_id <- t.next_id + 1;
      (* predecessors: the latest admitted gate on each wire; a gate
         sharing both wires with the same predecessor counts once *)
      let linked = ref [] in
      List.iter
        (fun q ->
          match t.wire.(q) with
          | Some p when not p.executed && not (List.memq p !linked) ->
              linked := p :: !linked;
              p.succs <- p.succs @ [ nd ];
              nd.indeg <- nd.indeg + 1
          | _ -> ())
        i.qubits;
      List.iter (fun q -> t.wire.(q) <- Some nd) i.qubits;
      t.resident <- t.resident + 1;
      if t.resident > t.peak then t.peak <- t.resident;
      if nd.indeg = 0 then t.front_ <- t.front_ @ [ nd ];
      true

let refill t =
  while (not t.exhausted) && t.resident < t.window do
    ignore (admit_one t)
  done

let create ~window source =
  if window < 1 then invalid_arg "Streamdag.create: window must be >= 1";
  let n = Source.n_qubits source in
  let t =
    {
      source;
      n;
      window;
      wire = Array.make n None;
      resident = 0;
      next_id = 0;
      exhausted = false;
      front_ = [];
      n_exec = 0;
      peak = 0;
      epoch = 0;
      queue = [||];
      la_cache = None;
    }
  in
  refill t;
  t

(* [front] without [nd], followed by [promoted]: one walk of the front,
   sharing the suffix after [nd] when nothing was promoted *)
let retire front nd promoted =
  let rec go = function
    | [] -> promoted
    | x :: tl when x == nd -> if promoted = [] then tl else tl @ promoted
    | x :: tl -> x :: go tl
  in
  go front

(* an admitted node is on the front iff it is unexecuted with indegree 0,
   so readiness is two field reads, not a walk of the front *)
let execute t nd =
  if nd.executed || nd.indeg <> 0 then invalid_arg "Streamdag.execute: node not ready";
  nd.executed <- true;
  t.resident <- t.resident - 1;
  t.n_exec <- t.n_exec + 1;
  let promoted = ref [] in
  List.iter
    (fun s ->
      s.indeg <- s.indeg - 1;
      if s.indeg = 0 then promoted := s :: !promoted)
    nd.succs;
  t.front_ <- retire t.front_ nd (List.rev !promoted);
  nd.succs <- [];
  refill t

let lookahead t k =
  match t.la_cache with
  | Some (d, a, k', nds) when d = t.n_exec && a = t.next_id && k' = k -> nds
  | _ ->
      (* BFS forward from the front: seed with the successors of every
         front node in front order, pop-head / append, collect up to [k]
         unexecuted two-qubit gates.  Epoch stamps live on the nodes and
         the queue is reused, so the sweep allocates only its result. *)
      t.epoch <- t.epoch + 1;
      let ep = t.epoch in
      let head = ref 0 and tail = ref 0 in
      let push nd =
        if !tail = Array.length t.queue then begin
          let q' = Array.make ((2 * !tail) + 16) nd in
          Array.blit t.queue 0 q' 0 !tail;
          t.queue <- q'
        end;
        t.queue.(!tail) <- nd;
        incr tail
      in
      List.iter (fun nd -> List.iter push nd.succs) t.front_;
      let out = ref [] in
      let count = ref 0 in
      while !count < k && !head < !tail do
        let nd = t.queue.(!head) in
        incr head;
        if nd.seen <> ep then begin
          nd.seen <- ep;
          if (not nd.executed) && Qgate.Gate.is_two_qubit nd.gate then begin
            out := nd :: !out;
            incr count
          end;
          List.iter push nd.succs
        end
      done;
      let nds = List.rev !out in
      t.la_cache <- Some (t.n_exec, t.next_id, k, nds);
      nds
