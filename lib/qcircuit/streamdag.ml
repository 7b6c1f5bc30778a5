open Qgate

(* A node handle is [(id lsl slot_bits) lor slot]: the admission index and
   the slot its data lives in.  A plan's slot is the id; a stream reuses
   the slots of executed gates, so the id part is what tells a stale handle
   from the slot's current occupant. *)
type node = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let[@inline] slot h = h land slot_mask
let id h = h lsr slot_bits
let[@inline] handle i s = (i lsl slot_bits) lor s

(* a two-qubit gate's qubits packed as [(a lsl slot_bits) lor b]; -1 for
   every other node *)
let no_pair = -1

let check_instr n_qubits (i : Circuit.instr) =
  let g = i.gate in
  if Gate.arity g > 2 && not (Gate.is_directive g) then
    invalid_arg "Streamdag: lower gates to <=2 qubits before routing";
  List.iter
    (fun q -> if q < 0 || q >= n_qubits then invalid_arg "Streamdag: qubit out of range")
    i.qubits;
  if Gate.is_two_qubit g then
    match i.qubits with
    | [ a; b ] -> (a lsl slot_bits) lor b
    | _ -> invalid_arg "Streamdag: a two-qubit gate needs two qubits"
  else no_pair

(* [f p] once for each distinct node in [wire] (-1: none) on [qs]'s wires:
   a gate sharing both wires with one predecessor depends on it once *)
let iter_preds wire qs f =
  match qs with
  | [] -> ()
  | [ a ] -> if wire.(a) >= 0 then f wire.(a)
  | [ a; b ] ->
      let pa = wire.(a) and pb = wire.(b) in
      if pa >= 0 then f pa;
      if pb >= 0 && pb <> pa then f pb
  | _ ->
      let rec go seen = function
        | [] -> ()
        | q :: rest ->
            let p = wire.(q) in
            if p >= 0 && not (List.mem p seen) then begin
              f p;
              go (p :: seen) rest
            end
            else go seen rest
      in
      go [] qs

module Plan = struct
  type t = {
    instrs : Circuit.instr array;
    pair : int array;
    indeg : int array;  (* initial indegrees *)
    off : int array;  (* node [i]'s successors are [succ.(off.(i)) .. succ.(off.(i + 1) - 1)] *)
    succ : node array;  (* ascending id order *)
    roots : node array;  (* the indegree-0 nodes, ascending *)
  }

  let built = Atomic.make 0
  let count () = Atomic.get built
  let size p = Array.length p.instrs

  (* Two sweeps with per-wire tails: the first counts each node's
     successors and predecessors, the second files every edge under its
     predecessor.  Edges are met in ascending successor order, so each
     node's successors come out ascending. *)
  let build ~n_qubits instrs =
    let n = Array.length instrs in
    if n > slot_mask then invalid_arg "Streamdag.Plan: circuit too long";
    let pair = Array.map (check_instr n_qubits) instrs in
    let indeg = Array.make n 0 in
    let off = Array.make (n + 1) 0 in
    let wire = Array.make n_qubits (-1) in
    Array.iteri
      (fun i (ins : Circuit.instr) ->
        iter_preds wire ins.qubits (fun p ->
            off.(p + 1) <- off.(p + 1) + 1;
            indeg.(i) <- indeg.(i) + 1);
        List.iter (fun q -> wire.(q) <- i) ins.qubits)
      instrs;
    for i = 1 to n do
      off.(i) <- off.(i) + off.(i - 1)
    done;
    let succ = Array.make off.(n) 0 in
    let fill = Array.sub off 0 n in
    Array.fill wire 0 n_qubits (-1);
    Array.iteri
      (fun i (ins : Circuit.instr) ->
        iter_preds wire ins.qubits (fun p ->
            succ.(fill.(p)) <- handle i i;
            fill.(p) <- fill.(p) + 1);
        List.iter (fun q -> wire.(q) <- i) ins.qubits)
      instrs;
    let n_roots = Array.fold_left (fun acc d -> if d = 0 then acc + 1 else acc) 0 indeg in
    let roots = Array.make n_roots 0 in
    let r = ref 0 in
    Array.iteri
      (fun i d ->
        if d = 0 then begin
          roots.(!r) <- handle i i;
          incr r
        end)
      indeg;
    { instrs; pair; indeg; off; succ; roots }

  let of_circuit ?(reverse = false) c =
    let instrs =
      if not reverse then Array.of_list (Circuit.instrs c)
      else
        Array.of_list
          (List.fold_left
             (fun acc (i : Circuit.instr) -> if i.gate = Gate.Measure then acc else i :: acc)
             [] (Circuit.instrs c))
    in
    Atomic.incr built;
    build ~n_qubits:(Circuit.n_qubits c) instrs
end

(* the incremental half of a bounded-window walk *)
type stream = {
  source : Source.t;
  window : int;
  wire : node array;  (* latest admitted, unexecuted node per wire, or -1 *)
  mutable hd : node array;  (* by slot: the handle of its occupant *)
  mutable succs : node list array;  (* by slot: ascending id order *)
  mutable free : int array;  (* slots of executed nodes, a stack *)
  mutable n_free : int;
  mutable fresh : int;  (* slots from here on were never used *)
  mutable resident : int;  (* admitted, unexecuted *)
  mutable next_id : int;
  mutable exhausted : bool;
  mutable peak : int;
}

type t = {
  mutable plan : Plan.t;  (* the plan walked; an empty one under a stream *)
  stream : stream option;
  (* node data by slot: the plan's own arrays, or the stream's *)
  mutable instrs : Circuit.instr array;
  mutable pair : int array;
  (* walk state by slot *)
  mutable indeg : int array;  (* unexecuted predecessors; -1 once executed *)
  mutable next : node array;  (* front links, -1 at either end *)
  mutable prev : node array;
  mutable first : node;
  mutable last : node;
  mutable seen : int array;  (* lookahead BFS epoch stamps *)
  mutable epoch : int;
  mutable queue : node array;  (* lookahead BFS queue, grown on demand *)
  mutable tail : int;
  mutable n_exec : int;
}

let no_instr = { Circuit.gate = Gate.Barrier 0; qubits = [] }
let empty_plan = Plan.build ~n_qubits:0 [||]

let blank plan stream =
  {
    plan;
    stream;
    instrs = [||];
    pair = [||];
    indeg = [||];
    next = [||];
    prev = [||];
    first = -1;
    last = -1;
    seen = [||];
    epoch = 0;
    queue = [||];
    tail = 0;
    n_exec = 0;
  }

let[@inline] capacity t = Array.length t.indeg

(* room for [cap] slots of walk state, keeping what the first [keep] hold *)
let grow_walk t cap ~keep =
  let grow a = Array.append (Array.sub a 0 keep) (Array.make (cap - keep) 0) in
  t.indeg <- grow t.indeg;
  t.next <- grow t.next;
  t.prev <- grow t.prev;
  t.seen <- grow t.seen

let append t h =
  let s = slot h in
  t.next.(s) <- -1;
  t.prev.(s) <- t.last;
  if t.last < 0 then t.first <- h else t.next.(slot t.last) <- h;
  t.last <- h

let unlink t h =
  let s = slot h in
  let p = t.prev.(s) and nx = t.next.(s) in
  if p < 0 then t.first <- nx else t.next.(slot p) <- nx;
  if nx < 0 then t.last <- p else t.prev.(slot nx) <- p

let reset t plan =
  if Option.is_some t.stream then invalid_arg "Streamdag.reset: a stream walk has no plan";
  let n = Plan.size plan in
  if capacity t < n then grow_walk t n ~keep:0;
  t.plan <- plan;
  t.instrs <- plan.instrs;
  t.pair <- plan.pair;
  Array.blit plan.indeg 0 t.indeg 0 n;
  t.first <- -1;
  t.last <- -1;
  Array.iter (append t) plan.roots;
  t.n_exec <- 0

let of_plan plan =
  let t = blank plan None in
  reset t plan;
  t

(* ---- stream admission ---- *)

let take_slot t st =
  if st.n_free > 0 then begin
    st.n_free <- st.n_free - 1;
    st.free.(st.n_free)
  end
  else begin
    if st.fresh = capacity t then begin
      let cap = max 16 (2 * st.fresh) and keep = st.fresh in
      grow_walk t cap ~keep;
      let grow a v = Array.append (Array.sub a 0 keep) (Array.make (cap - keep) v) in
      t.instrs <- grow t.instrs no_instr;
      t.pair <- grow t.pair no_pair;
      st.hd <- grow st.hd (-1);
      st.succs <- grow st.succs [];
      st.free <- grow st.free 0
    end;
    st.fresh <- st.fresh + 1;
    st.fresh - 1
  end

let admit_one t st =
  match Source.pull st.source with
  | None -> st.exhausted <- true
  | Some (i : Circuit.instr) ->
      let pr = check_instr (Array.length st.wire) i in
      let s = take_slot t st in
      let h = handle st.next_id s in
      st.next_id <- st.next_id + 1;
      t.instrs.(s) <- i;
      t.pair.(s) <- pr;
      st.hd.(s) <- h;
      let deg = ref 0 in
      iter_preds st.wire i.qubits (fun p ->
          st.succs.(slot p) <- st.succs.(slot p) @ [ h ];
          incr deg);
      t.indeg.(s) <- !deg;
      List.iter (fun q -> st.wire.(q) <- h) i.qubits;
      st.resident <- st.resident + 1;
      if st.resident > st.peak then st.peak <- st.resident;
      if !deg = 0 then append t h

let refill t st =
  while (not st.exhausted) && st.resident < st.window do
    admit_one t st
  done

let create ~window source =
  if window < 1 then invalid_arg "Streamdag.create: window must be >= 1";
  let st =
    {
      source;
      window;
      wire = Array.make (Source.n_qubits source) (-1);
      hd = [||];
      succs = [||];
      free = [||];
      n_free = 0;
      fresh = 0;
      resident = 0;
      next_id = 0;
      exhausted = false;
      peak = 0;
    }
  in
  let t = blank empty_plan (Some st) in
  refill t st;
  t

(* ---- the walk ---- *)

let front t =
  let rec go h acc = if h < 0 then List.rev acc else go t.next.(slot h) (h :: acc) in
  go t.first []

(* a node's two qubits, or -1 twice *)
let[@inline] pair_a p = if p < 0 then -1 else p lsr slot_bits
let[@inline] pair_b p = if p < 0 then -1 else p land slot_mask

let front_into t hs qa qb =
  let cap = min (Array.length hs) (min (Array.length qa) (Array.length qb)) in
  let next = t.next and pair = t.pair in
  let n = ref 0 and h = ref t.first in
  while !h >= 0 do
    let s = slot !h in
    if !n < cap then begin
      let p = pair.(s) in
      hs.(!n) <- !h;
      qa.(!n) <- pair_a p;
      qb.(!n) <- pair_b p
    end;
    incr n;
    h := next.(s)
  done;
  !n

let gate t h = t.instrs.(slot h).gate
let qubits t h = t.instrs.(slot h).qubits

let finished t =
  match t.stream with
  | None -> t.n_exec = Plan.size t.plan
  | Some st -> st.exhausted && st.resident = 0

let executed_count t = t.n_exec

let admitted_count t =
  match t.stream with None -> Plan.size t.plan | Some st -> st.next_id

let peak_resident t =
  match t.stream with None -> Plan.size t.plan | Some st -> st.peak

(* [h] names the current occupant of its slot *)
let current t h =
  h >= 0
  &&
  let s = slot h in
  match t.stream with
  | None -> s < Plan.size t.plan && id h = s
  | Some st -> s < st.fresh && st.hd.(s) = h

let release t d =
  let s = slot d in
  let k = t.indeg.(s) - 1 in
  t.indeg.(s) <- k;
  if k = 0 then append t d

(* a node is on the front iff it is unexecuted with indegree 0 *)
let execute t h =
  if not (current t h && t.indeg.(slot h) = 0) then
    invalid_arg "Streamdag.execute: node not ready";
  let s = slot h in
  t.indeg.(s) <- -1;
  t.n_exec <- t.n_exec + 1;
  unlink t h;
  match t.stream with
  | None ->
      let p = t.plan in
      for j = p.off.(s) to p.off.(s + 1) - 1 do
        release t p.succ.(j)
      done
  | Some st ->
      List.iter (release t) st.succs.(s);
      st.succs.(s) <- [];
      (* the slot is free once no wire's tail names it *)
      List.iter (fun q -> if st.wire.(q) = h then st.wire.(q) <- -1) t.instrs.(s).qubits;
      st.hd.(s) <- -1;
      st.free.(st.n_free) <- s;
      st.n_free <- st.n_free + 1;
      st.resident <- st.resident - 1;
      refill t st

let[@inline] push t d =
  if t.tail = Array.length t.queue then begin
    let q' = Array.make ((2 * t.tail) + 16) 0 in
    Array.blit t.queue 0 q' 0 t.tail;
    t.queue <- q'
  end;
  t.queue.(t.tail) <- d;
  t.tail <- t.tail + 1

(* BFS forward from the front, collecting up to [k] unexecuted two-qubit
   gates.  The queue starts with the front nodes, which are only expanded:
   so it holds the successors of every front node in front order before
   the first node is collected, and then grows pop-head / append.  No
   front node is a successor of one it can reach, so none is met twice.
   Epoch stamps and the queue are reused, so on a plan walk the sweep
   allocates nothing.  Which successor table the walk has (the plan's
   rows or the stream's lists) is read once per call. *)
let lookahead_into t k hs qa qb =
  t.epoch <- t.epoch + 1;
  let ep = t.epoch in
  t.tail <- 0;
  let h = ref t.first in
  while !h >= 0 do
    push t !h;
    h := t.next.(slot !h)
  done;
  let n_front = t.tail in
  let on_plan = Option.is_none t.stream in
  let off = t.plan.off and succ = t.plan.succ in
  let lists = match t.stream with None -> [||] | Some st -> st.succs in
  let seen = t.seen and indeg = t.indeg and pair = t.pair in
  let head = ref 0 and count = ref 0 in
  while !head < n_front || (!count < k && !head < t.tail) do
    let d = t.queue.(!head) in
    incr head;
    let s = slot d in
    if !head <= n_front || seen.(s) <> ep then begin
      if !head > n_front then begin
        seen.(s) <- ep;
        let p = pair.(s) in
        if indeg.(s) >= 0 && p >= 0 then begin
          hs.(!count) <- d;
          qa.(!count) <- pair_a p;
          qb.(!count) <- pair_b p;
          incr count
        end
      end;
      if on_plan then
        for j = off.(s) to off.(s + 1) - 1 do
          push t succ.(j)
        done
      else List.iter (fun d -> push t d) lists.(s)
    end
  done;
  !count

let lookahead t k =
  let k = max 0 (min k (capacity t)) in
  let buf = Array.make k 0 in
  let m = lookahead_into t k buf (Array.make k 0) (Array.make k 0) in
  Array.to_list (Array.sub buf 0 m)
