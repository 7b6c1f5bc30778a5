open Mathkit
open Qgate

(* cache of pairwise commutation results, keyed by gate pair + qubit overlap
   pattern.  One cache per domain (DLS), so the trials engine's parallel
   optimization passes never contend on a lock; entries are pure functions
   of the key, so a cold cache costs only recomputes.  [reset_cache] empties
   the calling domain's cache — the trial engine calls it at the start of
   every traced trial so cache hit/miss counters are a pure function of the
   trial's own work (deterministic across worker counts). *)
let cache_key : (string, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let reset_cache () = Hashtbl.reset (Domain.DLS.get cache_key)

let c_lookups = Qobs.counter "commutation.cache_lookups"
let c_hits = Qobs.counter "commutation.cache_hits"
let c_misses = Qobs.counter "commutation.cache_misses"
let c_uncached = Qobs.counter "commutation.uncached_evals"

(* cache key: exact binary gate signatures (Gate.add_signature — injective,
   no Format round-trips on the hot path) plus the relative qubit layout of
   the two operand lists *)
let key (g1, qs1) (g2, qs2) =
  let all = List.sort_uniq compare (qs1 @ qs2) in
  let buf = Buffer.create 32 in
  let rel qs =
    List.iter
      (fun q ->
        Buffer.add_char buf
          (Char.chr (Option.get (List.find_index (( = ) q) all))))
      qs;
    Buffer.add_char buf '\255'
  in
  Gate.add_signature buf g1;
  rel qs1;
  Gate.add_signature buf g2;
  rel qs2;
  Buffer.contents buf

let compute_commute (g1, qs1) (g2, qs2) =
  let all = List.sort_uniq compare (qs1 @ qs2) in
  let n = List.length all in
  let local qs = List.map (fun q -> Option.get (List.find_index (( = ) q) all)) qs in
  let u1 = Qcircuit.Circuit.embed ~n (Unitary.of_gate g1) (local qs1) in
  let u2 = Qcircuit.Circuit.embed ~n (Unitary.of_gate g2) (local qs2) in
  Mat.frobenius_distance (Mat.mul u1 u2) (Mat.mul u2 u1) < 1e-9

let commute (g1, qs1) (g2, qs2) =
  if Gate.is_directive g1 || Gate.is_directive g2 then false
  else if not (List.exists (fun q -> List.mem q qs2) qs1) then true
  else
    match ((g1 : Gate.t), (g2 : Gate.t)) with
    | Gate.Unitary2 _, _ | _, Gate.Unitary2 _ ->
        Qobs.incr c_uncached;
        compute_commute (g1, qs1) (g2, qs2)
    | _ ->
        let k = key (g1, qs1) (g2, qs2) in
        let cache = Domain.DLS.get cache_key in
        Qobs.incr c_lookups;
        (match Hashtbl.find_opt cache k with
        | Some v ->
            Qobs.incr c_hits;
            v
        | None ->
            Qobs.incr c_misses;
            let v = compute_commute (g1, qs1) (g2, qs2) in
            Hashtbl.replace cache k v;
            v)

(* The analysis lives over a fixed instruction array with stable op ids, so
   a caller that removes ops or rewrites gates re-forms only the commute sets
   its edits touched ([rescan]).  Per wire: the op ids in circuit order and,
   per position, whether that op starts a commute set.  Per op and operand:
   the id of its set on that wire.  Set ids are never reused, so a set that
   a rescan leaves alone keeps its id. *)
type wire = { mutable ops : int array; mutable starts : bool array }

type t = {
  instrs : Qcircuit.Circuit.instr array;
  alive : bool array;
  wires : wire array;
  set_of : int array array;  (* op -> operand -> set id *)
  mutable next_set : int;
  mutable edited : int list;  (* ops removed or rewritten since the last scan *)
}

let as_pair (x : Qcircuit.Circuit.instr) = (x.gate, x.qubits)

(* position of [op] in a wire's ascending op ids, or -1 *)
let position ops op =
  let rec go lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      if ops.(mid) = op then mid else if ops.(mid) < op then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Array.length ops - 1)

(* The one greedy set-forming scan, on wire [q]: an op joins the open set iff
   it commutes with every member, and a directive sits alone.  Greedy
   grouping from a set start depends only on the ops after it.  [changes]
   holds the ascending positions of the ops removed ([n_removed] of them) or
   rewritten since the wire's last scan.  Whenever a set would open at an
   old set start with every change at or before it passed, the scan stops if
   no change is left, and otherwise skips ahead to the old set before the
   one holding the next change, when that lies ahead: removing or rewriting
   the first op of a set can let the next op join the set before it.  The
   first such skip happens at position 0.  Skipped sets keep their ids;
   every scanned op gets a fresh set and is passed to [visit].  A wire with
   no old set starts is scanned in full. *)
let scan t q changes n_removed visit =
  let w = t.wires.(q) in
  let old_ops = w.ops and old_starts = w.starts in
  let len = Array.length old_ops in
  let ops = Array.make (len - n_removed) 0 and starts = Array.make (len - n_removed) false in
  let n = ref 0 in
  let keep lo hi =
    Array.blit old_ops lo ops !n (hi - lo);
    Array.blit old_starts lo starts !n (hi - lo);
    n := !n + hi - lo
  in
  let rec set_start p = if old_starts.(p) then p else set_start (p - 1) in
  let resync_point p =
    let s = set_start p in
    if s = 0 then 0 else set_start (s - 1)
  in
  let n_changes = Array.length changes in
  let next = ref 0 and pos = ref 0 in
  let members = ref [] and set = ref (-1) in
  while !pos < len do
    let p = !pos and id = old_ops.(!pos) in
    while !next < n_changes && changes.(!next) < p do
      incr next
    done;
    if not t.alive.(id) then incr pos
    else begin
      let i = t.instrs.(id) in
      let directive = Gate.is_directive i.gate in
      let opens =
        directive || !members = []
        || not (List.for_all (fun m -> commute (as_pair t.instrs.(m)) (as_pair i)) !members)
      in
      let settled = opens && old_starts.(p) && (!next = n_changes || changes.(!next) > p) in
      if settled && !next = n_changes then begin
        keep p len;
        pos := len
      end
      else if settled && resync_point changes.(!next) > p then begin
        let r = resync_point changes.(!next) in
        keep p r;
        pos := r;
        members := []
      end
      else begin
        if opens then begin
          set := t.next_set;
          t.next_set <- t.next_set + 1;
          starts.(!n) <- true
        end;
        ops.(!n) <- id;
        t.set_of.(id).(Option.get (List.find_index (( = ) q) i.qubits)) <- !set;
        visit id;
        members := (if directive then [] else if opens then [ id ] else id :: !members);
        incr n;
        incr pos
      end
    end
  done;
  w.ops <- ops;
  w.starts <- starts

let analyze c =
  let instrs = Array.of_list (Qcircuit.Circuit.instrs c) in
  (* per-wire op ids in circuit order, bucketed in one reverse pass *)
  let ops_on = Array.make (Qcircuit.Circuit.n_qubits c) [] in
  for id = Array.length instrs - 1 downto 0 do
    List.iter (fun q -> ops_on.(q) <- id :: ops_on.(q)) instrs.(id).Qcircuit.Circuit.qubits
  done;
  let t =
    {
      instrs;
      alive = Array.make (Array.length instrs) true;
      wires =
        Array.map
          (fun l ->
            let ops = Array.of_list l in
            { ops; starts = Array.make (Array.length ops) false })
          ops_on;
      set_of =
        Array.map
          (fun (i : Qcircuit.Circuit.instr) -> Array.make (List.length i.qubits) (-1))
          instrs;
      next_set = 0;
      edited = [];
    }
  in
  Array.iteri (fun q _ -> scan t q [||] 0 ignore) t.wires;
  t

let n_ops t = Array.length t.instrs
let instr t op = t.instrs.(op)
let set_id t ~op ~operand = t.set_of.(op).(operand)

let remove t op =
  t.alive.(op) <- false;
  t.edited <- op :: t.edited

let rewrite t op gate =
  t.instrs.(op) <- { (t.instrs.(op)) with gate };
  t.edited <- op :: t.edited

let rescan t =
  let changes = Array.make (Array.length t.wires) [] in
  List.iter
    (fun op ->
      List.iter
        (fun q -> changes.(q) <- position t.wires.(q).ops op :: changes.(q))
        t.instrs.(op).Qcircuit.Circuit.qubits)
    t.edited;
  t.edited <- [];
  let seen = Bytes.make (Array.length t.instrs) '\000' and visited = ref [] in
  let visit op =
    if Bytes.get seen op = '\000' then begin
      Bytes.set seen op '\001';
      visited := op :: !visited
    end
  in
  Array.iteri
    (fun q ps ->
      if ps <> [] then begin
        let ps = Array.of_list (List.sort_uniq compare ps) in
        let ops = t.wires.(q).ops in
        let n_removed = Array.fold_left (fun k p -> if t.alive.(ops.(p)) then k else k + 1) 0 ps in
        scan t q ps n_removed visit
      end)
    changes;
  !visited

let circuit t =
  let out = ref [] in
  for op = Array.length t.instrs - 1 downto 0 do
    if t.alive.(op) then out := t.instrs.(op) :: !out
  done;
  Qcircuit.Circuit.create (Array.length t.wires) !out

let sets_on_wire t q =
  let w = t.wires.(q) in
  let sets = ref [] and set = ref [] in
  for p = Array.length w.ops - 1 downto 0 do
    set := w.ops.(p) :: !set;
    if w.starts.(p) then begin
      sets := !set :: !sets;
      set := []
    end
  done;
  !sets

let set_index t ~wire ~op =
  if wire < 0 || wire >= Array.length t.wires then raise Not_found;
  match List.find_index (List.mem op) (sets_on_wire t wire) with
  | Some k -> k
  | None -> raise Not_found
