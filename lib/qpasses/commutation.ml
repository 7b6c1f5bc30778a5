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

(* the cached answer for two overlapping ops whose gates and operand lists
   are [cacheable], given by their first and second qubits; inlined, since a
   call here cost [commute] on a parameterized gate about a tenth of its
   time *)
let[@inline] cached g1 a b g2 cq d =
  let c = Domain.DLS.get cache_key in
  let n1 = put_params c.params 0 g1 in
  let n = n1 + put_params c.params n1 g2 in
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
    let qs x y = if y = absent then [ x ] else [ x; y ] in
    let v = compute_commute (g1, qs a b) (g2, qs cq d) in
    insert c code n h v;
    v
  end

let commute_q g1 qs1 g2 qs2 =
  if Gate.is_directive g1 || Gate.is_directive g2 then false
  else if not (overlaps qs1 qs2) then true
  else if not (cacheable g1 qs1 && cacheable g2 qs2) then begin
    Qobs.incr c_uncached;
    compute_commute (g1, qs1) (g2, qs2)
  end
  else cached g1 (first qs1) (second qs1) g2 (first qs2) (second qs2)

let commute (g1, qs1) (g2, qs2) = commute_q g1 qs1 g2 qs2

(* The analysis lives over a fixed instruction array with stable op ids, so
   a caller that removes ops or rewrites gates re-forms only the commute sets
   its edits touched ([rescan]).  All of it is flat int storage:
   - per wire, the op ids in circuit order ([ops]) and the ascending
     positions where a commute set starts ([starts]), so set [k] of a wire
     is the position range from [starts.(k)] up to the next start or the
     wire's end;
   - per op and operand, the id of its set on that wire, in one array:
     operand [k] of op [id] sits at [base.(id) + k];
   - per op, its first and second qubit packed in one int ([pair]) when
     its gate and operand list are [cacheable] and it is not a directive,
     or -1 otherwise: the scan asks the cache about two such ops without
     walking their operand lists;
   - the removed ops as a byte mask, and the ops edited since the last scan
     in a growable array.
   Set ids are never reused, so a set that a rescan leaves alone keeps its
   id. *)
type wire = { mutable ops : int array; mutable starts : int array }

type t = {
  instrs : Qcircuit.Circuit.instr array;
  removed : Bytes.t;
  wires : wire array;
  pair : int array;
  base : int array;  (* op -> its operand 0's slot in [set_ids]; one past the end last *)
  set_ids : int array;
  mutable next_set : int;
  mutable edits : int array;  (* ops removed or rewritten since the last scan *)
  mutable n_edits : int;
  new_starts : int array;  (* a scan's set starts, as long as the longest wire *)
}

let is_removed t op = Bytes.unsafe_get t.removed op <> '\000'

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

(* index of the last element at most [x] in the ascending [a], whose first
   element is at most [x] *)
let last_at_most a x =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if a.(mid) <= x then lo := mid else hi := mid - 1
  done;
  !lo

(* [pair]'s packing: the first qubit in the low 31 bits, and above them
   the second plus one, or 0 for a 1-qubit op.  Qubits index the wire
   array, so they fit. *)
let qubit_bits = 31
let q0 v = v land ((1 lsl qubit_bits) - 1)
let q1 v = match v lsr qubit_bits with 0 -> absent | x -> x - 1

(* op [id]'s [pair] entry for its current gate *)
let set_pair t id =
  let (i : Qcircuit.Circuit.instr) = t.instrs.(id) in
  t.pair.(id) <-
    (match i.qubits with
    | _ when Gate.is_directive i.gate || not (cacheable i.gate i.qubits) -> -1
    | [ a ] -> a
    | [ a; b ] -> a lor ((b + 1) lsl qubit_bits)
    | _ -> -1)

(* whether op [id] commutes with the ops at positions [lo] to [hi - 1] of
   [ops], asked latest first; they all share a wire with it *)
let commutes_with_range t ops lo hi id =
  let i = t.instrs.(id) and v = t.pair.(id) in
  let p = ref (hi - 1) in
  while
    !p >= lo
    &&
    let m = ops.(!p) in
    let vm = t.pair.(m) and x = t.instrs.(m) in
    if vm >= 0 && v >= 0 then cached x.gate (q0 vm) (q1 vm) i.gate (q0 v) (q1 v)
    else commute_q x.gate x.qubits i.gate i.qubits
  do
    decr p
  done;
  !p < lo

(* operand index of wire [q] in op [id] *)
let operand t id q =
  let v = t.pair.(id) in
  if v < 0 then index_of q 0 t.instrs.(id).qubits else if q0 v = q then 0 else 1

(* The one greedy set-forming scan, on wire [q]: an op joins the open set iff
   it commutes with every member, and a directive sits alone.  The open
   set's members are the positions from [open_lo] to the scan's end of the
   new op array.  Greedy grouping from a set start depends only on the ops
   after it.  [changes] holds the ascending positions of the ops removed
   ([n_removed] of them) or rewritten since the wire's last scan.  Whenever
   a set would open at an old set start with every change at or before it
   passed, the scan stops if no change is left, and otherwise skips ahead
   to the old set before the one holding the next change, when that lies
   ahead: removing or rewriting the first op of a set can let the next op
   join the set before it.  The first such skip happens at position 0.
   Skipped sets keep their ids; every scanned op gets a fresh set and is
   passed to [visit].  A wire with no old set starts is scanned in full. *)
let scan t q changes n_removed visit =
  let w = t.wires.(q) in
  let old_ops = w.ops and old_starts = w.starts in
  let len = Array.length old_ops and n_old = Array.length old_starts in
  let ops = Array.make (len - n_removed) 0 and starts = t.new_starts in
  let n = ref 0 and n_sets = ref 0 in
  (* [k] is the first old set start at or after the scan position *)
  let k = ref 0 in
  let keep lo hi =
    Array.blit old_ops lo ops !n (hi - lo);
    while !k < n_old && old_starts.(!k) < hi do
      starts.(!n_sets) <- old_starts.(!k) - lo + !n;
      incr n_sets;
      incr k
    done;
    n := !n + hi - lo
  in
  let resync_point p =
    let i = last_at_most old_starts p in
    old_starts.(if i = 0 then 0 else i - 1)
  in
  let n_changes = Array.length changes in
  let next = ref 0 and pos = ref 0 in
  let open_lo = ref (-1) and set = ref (-1) in
  while !pos < len do
    let p = !pos and id = old_ops.(!pos) in
    while !next < n_changes && changes.(!next) < p do
      incr next
    done;
    while !k < n_old && old_starts.(!k) < p do
      incr k
    done;
    if is_removed t id then incr pos
    else begin
      let directive = Gate.is_directive t.instrs.(id).gate in
      let opens = directive || !open_lo < 0 || not (commutes_with_range t ops !open_lo !n id) in
      let settled =
        opens && !k < n_old && old_starts.(!k) = p && (!next = n_changes || changes.(!next) > p)
      in
      let resync = if settled && !next < n_changes then resync_point changes.(!next) else -1 in
      if settled && !next = n_changes then begin
        keep p len;
        pos := len
      end
      else if resync > p then begin
        keep p resync;
        pos := resync;
        open_lo := -1
      end
      else begin
        if opens then begin
          set := t.next_set;
          t.next_set <- t.next_set + 1;
          starts.(!n_sets) <- !n;
          incr n_sets
        end;
        ops.(!n) <- id;
        t.set_ids.(t.base.(id) + operand t id q) <- !set;
        visit id;
        if directive then open_lo := -1 else if opens then open_lo := !n;
        incr n;
        incr pos
      end
    end
  done;
  w.ops <- ops;
  w.starts <- Array.sub starts 0 !n_sets

let analyze c =
  let instrs = Array.of_list (Qcircuit.Circuit.instrs c) in
  let n_ops = Array.length instrs in
  (* per-wire op counts, then the op ids bucketed in ascending order *)
  let count = Array.make (Qcircuit.Circuit.n_qubits c) 0 and base = Array.make (n_ops + 1) 0 in
  Array.iteri
    (fun id (i : Qcircuit.Circuit.instr) ->
      let rec go k = function
        | [] -> base.(id + 1) <- base.(id) + k
        | q :: rest ->
            count.(q) <- count.(q) + 1;
            go (k + 1) rest
      in
      go 0 i.qubits)
    instrs;
  let wires = Array.map (fun k -> { ops = Array.make k 0; starts = [||] }) count in
  let longest = Array.fold_left max 0 count in
  Array.fill count 0 (Array.length count) 0;
  Array.iteri
    (fun id (i : Qcircuit.Circuit.instr) ->
      List.iter
        (fun q ->
          wires.(q).ops.(count.(q)) <- id;
          count.(q) <- count.(q) + 1)
        i.qubits)
    instrs;
  let t =
    {
      instrs;
      removed = Bytes.make n_ops '\000';
      wires;
      pair = Array.make n_ops (-1);
      base;
      set_ids = Array.make base.(n_ops) (-1);
      next_set = 0;
      edits = Array.make 16 0;
      n_edits = 0;
      new_starts = Array.make longest 0;
    }
  in
  for id = 0 to n_ops - 1 do
    set_pair t id
  done;
  Array.iteri (fun q _ -> scan t q [||] 0 ignore) wires;
  t

let n_ops t = Array.length t.instrs
let instr t op = t.instrs.(op)

let same_sets t a b =
  let fa = t.base.(a) and fb = t.base.(b) in
  let k = t.base.(a + 1) - fa in
  k = t.base.(b + 1) - fb
  &&
  let j = ref 0 in
  while !j < k && t.set_ids.(fa + !j) = t.set_ids.(fb + !j) do
    incr j
  done;
  !j = k

let sets_hash t op =
  let h = ref 0 in
  for slot = t.base.(op) to t.base.(op + 1) - 1 do
    h := (!h lxor t.set_ids.(slot)) * 0x165667b19e3779f9
  done;
  !h lxor (!h lsr 29)

let edited t op =
  if t.n_edits = Array.length t.edits then begin
    let edits = Array.make (2 * t.n_edits) 0 in
    Array.blit t.edits 0 edits 0 t.n_edits;
    t.edits <- edits
  end;
  t.edits.(t.n_edits) <- op;
  t.n_edits <- t.n_edits + 1

let remove t op =
  Bytes.set t.removed op '\001';
  edited t op

let rewrite t op gate =
  t.instrs.(op) <- { (t.instrs.(op)) with gate };
  set_pair t op;
  edited t op

let rescan t =
  let n_wires = Array.length t.wires in
  (* the edited ops' positions, bucketed by wire: wire [q]'s are
     [positions.(lo.(q))] up to [positions.(lo.(q + 1))] *)
  let lo = Array.make (n_wires + 1) 0 in
  for e = 0 to t.n_edits - 1 do
    List.iter (fun q -> lo.(q + 1) <- lo.(q + 1) + 1) t.instrs.(t.edits.(e)).qubits
  done;
  for q = 1 to n_wires do
    lo.(q) <- lo.(q) + lo.(q - 1)
  done;
  let fill = Array.sub lo 0 n_wires and positions = Array.make lo.(n_wires) 0 in
  for e = 0 to t.n_edits - 1 do
    let op = t.edits.(e) in
    List.iter
      (fun q ->
        positions.(fill.(q)) <- position t.wires.(q).ops op;
        fill.(q) <- fill.(q) + 1)
      t.instrs.(op).qubits
  done;
  t.n_edits <- 0;
  let seen = Bytes.make (Array.length t.instrs) '\000' and n_seen = ref 0 in
  let visit op =
    if Bytes.unsafe_get seen op = '\000' then begin
      Bytes.unsafe_set seen op '\001';
      incr n_seen
    end
  in
  for q = 0 to n_wires - 1 do
    if lo.(q + 1) > lo.(q) then begin
      let ps = Array.sub positions lo.(q) (lo.(q + 1) - lo.(q)) in
      Array.sort Int.compare ps;
      (* an op edited twice is one change *)
      let m = ref 0 in
      Array.iteri
        (fun j p ->
          if j = 0 || p <> ps.(!m - 1) then begin
            ps.(!m) <- p;
            incr m
          end)
        ps;
      let ps = if !m = Array.length ps then ps else Array.sub ps 0 !m in
      let ops = t.wires.(q).ops in
      let n_removed = Array.fold_left (fun k p -> if is_removed t ops.(p) then k + 1 else k) 0 ps in
      scan t q ps n_removed visit
    end
  done;
  let cands = Array.make !n_seen 0 and k = ref 0 in
  Bytes.iteri
    (fun op b ->
      if b <> '\000' then begin
        cands.(!k) <- op;
        incr k
      end)
    seen;
  cands

let circuit t =
  let out = ref [] in
  for op = Array.length t.instrs - 1 downto 0 do
    if not (is_removed t op) then out := t.instrs.(op) :: !out
  done;
  Qcircuit.Circuit.create (Array.length t.wires) !out

let sets_on_wire t q =
  let w = t.wires.(q) in
  let n_sets = Array.length w.starts in
  List.init n_sets (fun k ->
      let hi = if k + 1 < n_sets then w.starts.(k + 1) else Array.length w.ops in
      Array.to_list (Array.sub w.ops w.starts.(k) (hi - w.starts.(k))))

let set_index t ~wire ~op =
  if wire < 0 || wire >= Array.length t.wires then raise Not_found;
  let w = t.wires.(wire) in
  match position w.ops op with -1 -> raise Not_found | p -> last_at_most w.starts p
