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
  tbl : (int, node) Hashtbl.t;  (* admitted, unexecuted *)
  mutable next_id : int;
  mutable exhausted : bool;
  mutable front_ : int list;
  mutable n_exec : int;
  mutable peak : int;
  mutable epoch : int;
  mutable la_cache : (int * int * int * int list) option;
      (** (n_exec, next_id, k, result): admission extends succ lists, so
          the cache keys on the admission horizon as well as the executed
          count (unlike [Dag.Traversal], whose graph is static). *)
}

let n_qubits t = t.n
let front t = t.front_
let finished t = t.exhausted && Hashtbl.length t.tbl = 0
let executed_count t = t.n_exec
let admitted_count t = t.next_id
let resident t = Hashtbl.length t.tbl
let peak_resident t = t.peak

let node t id = Hashtbl.find t.tbl id
let gate t id = (node t id).gate
let qubits t id = (node t id).qubits

let admit_one t =
  match Source.pull t.source with
  | None ->
      t.exhausted <- true;
      false
  | Some (i : Circuit.instr) ->
      let g = i.gate in
      if Qgate.Gate.arity g > 2 && not (Qgate.Gate.is_directive g) then
        invalid_arg "Streamdag: lower gates to <=2 qubits before streaming";
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
         sharing both wires with the same predecessor counts once, exactly
         like the distinct-id pred cache of the materialized DAG *)
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
      Hashtbl.add t.tbl nd.id nd;
      let r = Hashtbl.length t.tbl in
      if r > t.peak then t.peak <- r;
      if nd.indeg = 0 then t.front_ <- t.front_ @ [ nd.id ];
      true

let refill t =
  while (not t.exhausted) && Hashtbl.length t.tbl < t.window do
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
      tbl = Hashtbl.create 256;
      next_id = 0;
      exhausted = false;
      front_ = [];
      n_exec = 0;
      peak = 0;
      epoch = 0;
      la_cache = None;
    }
  in
  refill t;
  t

let execute t id =
  let nd =
    match Hashtbl.find_opt t.tbl id with
    | Some nd -> nd
    | None -> invalid_arg "Streamdag.execute: node not resident"
  in
  (* a resident node is on the front iff its indegree is 0 *)
  if nd.indeg <> 0 then invalid_arg "Streamdag.execute: node not ready";
  nd.executed <- true;
  Hashtbl.remove t.tbl id;
  t.n_exec <- t.n_exec + 1;
  let promoted = ref [] in
  List.iter
    (fun s ->
      s.indeg <- s.indeg - 1;
      if s.indeg = 0 then promoted := s.id :: !promoted)
    nd.succs;
  t.front_ <- Dag.retire t.front_ id (List.rev !promoted);
  nd.succs <- [];
  refill t

let lookahead t k =
  match t.la_cache with
  | Some (d, a, k', ids) when d = t.n_exec && a = t.next_id && k' = k -> ids
  | _ ->
      (* same BFS as [Dag.Traversal.lookahead]: seed with the successors of
         every front node in front order, pop-head / append, collect up to
         [k] unexecuted two-qubit gates.  Epoch stamps live on the resident
         nodes themselves, so the sweep allocates only the queue. *)
      t.epoch <- t.epoch + 1;
      let ep = t.epoch in
      let q : node Queue.t = Queue.create () in
      List.iter
        (fun id -> List.iter (fun s -> Queue.add s q) (node t id).succs)
        t.front_;
      let out = ref [] in
      let count = ref 0 in
      while !count < k && not (Queue.is_empty q) do
        let nd = Queue.pop q in
        if nd.seen <> ep then begin
          nd.seen <- ep;
          if (not nd.executed) && Qgate.Gate.is_two_qubit nd.gate then begin
            out := nd.id :: !out;
            incr count
          end;
          List.iter (fun s -> Queue.add s q) nd.succs
        end
      done;
      let ids = List.rev !out in
      t.la_cache <- Some (t.n_exec, t.next_id, k, ids);
      ids
