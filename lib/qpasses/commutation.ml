open Mathkit
open Qgate

(* The pairwise commutation cache.  A key is an int code plus the exact bits
   of the two gates' parameters:
   - the code packs the two gate tags (bits 0-11), the relative qubit
     pattern (bits 12-23: each operand's rank in the sorted union of both
     lists, plus one, and 0 for an absent second operand) and the number
     of parameters (bits 24-26, so [grow] can rehash a slot);
   - the parameters (at most 3 per gate, for [U]) live in an append-only
     pool and compare by [Int64.bits_of_float], so [0.0] and [-0.0] are
     different keys.
   Only pairs whose operand lists hold at most 2 qubits are cached, which
   after lowering is every pair; [Unitary2], [MCX], [MCZ] and wider gates
   are evaluated uncached.  The table is open addressing with linear
   probing over one int array: a slot holds the code, the answer (bit 27)
   and the offset of its parameters in the pool (from bit 28), so a hit
   allocates nothing.  It is emptied when it holds [cache_cap] entries and
   another is added.  One cache per domain (DLS), so the trials engine's
   parallel optimization passes never contend on a lock; entries are pure
   functions of the key, so a cold cache costs only recomputes.
   [reset_cache] empties the calling domain's cache — the trial engine
   calls it at the start of every traced trial so cache hit/miss counters
   are a pure function of the trial's own work (deterministic across
   worker counts). *)
type cache = {
  mutable slots : int array;  (* [empty], or code, answer and offset *)
  mutable size : int;
  mutable pool : Float.Array.t;
  mutable pool_len : int;
  params : Float.Array.t;  (* the parameters of the pair being looked up *)
}

let cache_cap = 1 lsl 16
let initial_slots = 256
let empty = -1
let code_mask = (1 lsl 27) - 1
let answer_bit = 1 lsl 27
let offset_shift = 28

let clear c =
  c.slots <- Array.make initial_slots empty;
  c.size <- 0;
  c.pool <- Float.Array.create initial_slots;
  c.pool_len <- 0

let cache_key : cache Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c =
        {
          slots = [||];
          size = 0;
          pool = Float.Array.create 0;
          pool_len = 0;
          params = Float.Array.create 6;
        }
      in
      clear c;
      c)

let reset_cache () = clear (Domain.DLS.get cache_key)

let c_lookups = Qobs.counter "commutation.cache_lookups"
let c_hits = Qobs.counter "commutation.cache_hits"
let c_misses = Qobs.counter "commutation.cache_misses"
let c_uncached = Qobs.counter "commutation.uncached_evals"

(* writes [g]'s parameters into [p] from [off]; returns how many *)
let put_params p off (g : Gate.t) =
  match g with
  | RX a | RY a | RZ a | P a | CRX a | CRY a | CRZ a | CP a | RZZ a ->
      Float.Array.unsafe_set p off a;
      1
  | U (a, b, l) ->
      Float.Array.unsafe_set p off a;
      Float.Array.unsafe_set p (off + 1) b;
      Float.Array.unsafe_set p (off + 2) l;
      3
  | _ -> 0

let bits p i = Int64.bits_of_float (Float.Array.unsafe_get p i)

(* of a code and its [n] parameters at [off] in [p]; every parameter bit,
   the sign included, reaches the low bits that pick the slot *)
let hash code p off n =
  let h = ref (code * 0x27d4eb2f165667c5) in
  for i = off to off + n - 1 do
    let b = bits p i in
    let x = Int64.to_int b lxor Int64.to_int (Int64.shift_right_logical b 32) in
    h := (!h lxor x) * 0x165667b19e3779f9
  done;
  !h lxor (!h lsr 29)

(* the slot holding the key [code] with [c.params], or the empty slot where
   it would go *)
let probe c code n h =
  let mask = Array.length c.slots - 1 in
  let i = ref (h land mask) in
  while
    let e = Array.unsafe_get c.slots !i in
    e <> empty
    && not
         (e land code_mask = code
         &&
         let off = e lsr offset_shift and j = ref 0 in
         while !j < n && Int64.equal (bits c.pool (off + !j)) (bits c.params !j) do
           incr j
         done;
         !j = n)
  do
    i := (!i + 1) land mask
  done;
  !i

(* the first empty slot at or after [h]'s *)
let free_slot slots h =
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while slots.(!i) <> empty do
    i := (!i + 1) land mask
  done;
  !i

let grow c =
  let old = c.slots in
  c.slots <- Array.make (2 * Array.length old) empty;
  Array.iter
    (fun e ->
      if e <> empty then begin
        let code = e land code_mask in
        c.slots.(free_slot c.slots (hash code c.pool (e lsr offset_shift) (code lsr 24))) <- e
      end)
    old

(* adds a key that [probe] did not find, emptying a full cache first *)
let insert c code n h v =
  if c.size >= cache_cap then clear c
  else if 2 * (c.size + 1) > Array.length c.slots then grow c;
  if c.pool_len + n > Float.Array.length c.pool then begin
    let pool = Float.Array.create (2 * Float.Array.length c.pool) in
    Float.Array.blit c.pool 0 pool 0 c.pool_len;
    c.pool <- pool
  end;
  Float.Array.blit c.params 0 c.pool c.pool_len n;
  c.slots.(free_slot c.slots h) <-
    code lor (if v then answer_bit else 0) lor (c.pool_len lsl offset_shift);
  c.pool_len <- c.pool_len + n;
  c.size <- c.size + 1

let compute_commute (g1, qs1) (g2, qs2) =
  let all = List.sort_uniq compare (qs1 @ qs2) in
  let n = List.length all in
  let local qs = List.map (fun q -> Option.get (List.find_index (( = ) q) all)) qs in
  let u1 = Qcircuit.Circuit.embed ~n (Unitary.of_gate g1) (local qs1) in
  let u2 = Qcircuit.Circuit.embed ~n (Unitary.of_gate g2) (local qs2) in
  Mat.frobenius_distance (Mat.mul u1 u2) (Mat.mul u2 u1) < 1e-9

let rec mem (q : int) = function [] -> false | x :: rest -> x = q || mem q rest
let rec overlaps qs1 qs2 = match qs1 with [] -> false | q :: rest -> mem q qs2 || overlaps rest qs2

let cacheable (g : Gate.t) qs =
  match (g, qs) with
  | (Unitary2 _ | MCX _ | MCZ _), _ -> false
  | _, ([] | [ _ ] | [ _; _ ]) -> true
  | _ -> false

(* an operand list's first and second qubit, [absent] past its end *)
let absent = max_int
let first = function q :: _ -> q | [] -> absent
let second = function _ :: q :: _ -> q | _ -> absent

(* 1 + the number of distinct qubits among [a b c d] below [x], or 0 when
   [x] is absent: [x]'s place in the old key's sorted union *)
let rank (x : int) a b c d =
  if x = absent then 0
  else
    1
    + (if a < x then 1 else 0)
    + (if b <> a && b < x then 1 else 0)
    + (if c <> a && c <> b && c < x then 1 else 0)
    + if d <> a && d <> b && d <> c && d < x then 1 else 0

let commute_q g1 qs1 g2 qs2 =
  if Gate.is_directive g1 || Gate.is_directive g2 then false
  else if not (overlaps qs1 qs2) then true
  else if not (cacheable g1 qs1 && cacheable g2 qs2) then begin
    Qobs.incr c_uncached;
    compute_commute (g1, qs1) (g2, qs2)
  end
  else begin
    let c = Domain.DLS.get cache_key in
    let n1 = put_params c.params 0 g1 in
    let n = n1 + put_params c.params n1 g2 in
    let a = first qs1 and b = second qs1 and cq = first qs2 and d = second qs2 in
    let code =
      Gate.tag g1
      lor (Gate.tag g2 lsl 6)
      lor (rank a a b cq d lsl 12)
      lor (rank b a b cq d lsl 15)
      lor (rank cq a b cq d lsl 18)
      lor (rank d a b cq d lsl 21)
      lor (n lsl 24)
    in
    let h = hash code c.params 0 n in
    Qobs.incr c_lookups;
    let e = c.slots.(probe c code n h) in
    if e <> empty then begin
      Qobs.incr c_hits;
      e land answer_bit <> 0
    end
    else begin
      Qobs.incr c_misses;
      let v = compute_commute (g1, qs1) (g2, qs2) in
      insert c code n h v;
      v
    end
  end

let commute (g1, qs1) (g2, qs2) = commute_q g1 qs1 g2 qs2

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

(* whether [g] on [qs] commutes with every op in [members] *)
let rec commutes_with_all instrs g qs = function
  | [] -> true
  | m :: rest ->
      let (x : Qcircuit.Circuit.instr) = instrs.(m) in
      commute_q x.gate x.qubits g qs && commutes_with_all instrs g qs rest

let rec index_of (q : int) k = function
  | [] -> raise Not_found
  | x :: rest -> if x = q then k else index_of q (k + 1) rest

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
        || not (commutes_with_all t.instrs i.gate i.qubits !members)
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
        t.set_of.(id).(index_of q 0 i.qubits) <- !set;
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
