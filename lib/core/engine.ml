open Mathkit
open Qgate
open Topology
module Streamdag = Qcircuit.Streamdag

type params = {
  ext_size : int;
  ext_weight : float;
  stall_limit : int;
  seed : int;
  iterations : int;
}

let default_params =
  {
    ext_size = 20;
    ext_weight = 0.5;
    stall_limit = 30;
    seed = 11;
    iterations = 3;
  }

(* the decay increment per SWAP on a qubit (as in Qiskit's SabreSwap) *)
let decay_delta = 0.001

exception Routing_stuck of { front : (int * int) list; l2p : int array }

let () =
  Printexc.register_printer (function
    | Routing_stuck { front; l2p } ->
        Some
          (Printf.sprintf
             "Engine.Routing_stuck: no swap candidates for front {%s} under mapping [%s]"
             (String.concat "; "
                (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) front))
             (String.concat " " (Array.to_list (Array.map string_of_int l2p))))
    | _ -> None)

type tag = Not_swap | Swap_plain | Swap_orient of int * int
type out_op = { mutable gate : Gate.t; op_qubits : int list; mutable tag : tag }
type mapping = { l2p : int array; p2l : int array }

let mapping_of_layout ~n_phys l2p =
  let p2l = Array.make n_phys (-1) in
  Array.iteri
    (fun l p ->
      if p < 0 || p >= n_phys then invalid_arg "Engine.mapping_of_layout: bad layout";
      if p2l.(p) >= 0 then invalid_arg "Engine.mapping_of_layout: duplicate physical qubit";
      p2l.(p) <- l)
    l2p;
  { l2p = Array.copy l2p; p2l }

let apply_swap m p1 p2 =
  let l1 = m.p2l.(p1) and l2 = m.p2l.(p2) in
  m.p2l.(p1) <- l2;
  m.p2l.(p2) <- l1;
  if l1 >= 0 then m.l2p.(l1) <- p2;
  if l2 >= 0 then m.l2p.(l2) <- p1

(* ---- the emitted-op stream ----

   [s_rev] is the routed output, newest first (what [route_once] always
   kept).  [s_wire] additionally indexes the same ops per physical qubit,
   newest first, each carrying its global emission index.  The bonus hooks
   walk a bounded window of recent ops on exactly two wires; with the
   per-wire tails they visit only ops touching those wires and use the
   emission index to honor the global window bound, instead of filtering
   the whole stream with [touches].

   A stream may carry a sink: once retained ops exceed [2 * keep], all but
   the newest [keep] are handed to the sink oldest-first and dropped from
   [s_rev] and the wire index, keeping resident memory O(keep) over
   million-gate runs.  The bonus hooks only scan ops with emission index
   >= total - scan_limit and only retro-mutate ops found by that scan, so
   any [keep >= scan_limit + 1] makes flushing invisible to them. *)

type stream = {
  mutable s_rev : out_op list;
  mutable s_total : int;
  s_wire : (int * out_op) list array;
  s_sink : (out_op -> unit) option;
  s_keep : int;
  mutable s_oldest : int;  (* emission index of the oldest retained op *)
}

let stream_create ?sink ?(keep = 64) ~n_phys () =
  if keep < 1 then invalid_arg "Engine.stream_create: keep must be >= 1";
  {
    s_rev = [];
    s_total = 0;
    s_wire = Array.make n_phys [];
    s_sink = sink;
    s_keep = keep;
    s_oldest = 0;
  }

(* split a list into its first [n] elements (order preserved) and the rest *)
let rec take_rev n acc l =
  if n = 0 then (acc, l)
  else match l with [] -> (acc, []) | x :: tl -> take_rev (n - 1) (x :: acc) tl

let maybe_flush s =
  match s.s_sink with
  | None -> ()
  | Some sink ->
      if s.s_total - s.s_oldest > 2 * s.s_keep then begin
        (* [s_rev] is newest-first: the first [keep] entries stay resident,
           the tail is delivered oldest-first and dropped *)
        let kept_oldest_first, older_newest_first = take_rev s.s_keep [] s.s_rev in
        List.iter sink (List.rev older_newest_first);
        s.s_rev <- List.rev kept_oldest_first;
        s.s_oldest <- s.s_total - s.s_keep;
        let cut = s.s_oldest in
        Array.iteri
          (fun q entries ->
            match entries with
            | [] -> ()
            | _ -> s.s_wire.(q) <- List.filter (fun (i, _) -> i >= cut) entries)
          s.s_wire
      end

let stream_push s op =
  let idx = s.s_total in
  s.s_rev <- op :: s.s_rev;
  s.s_total <- idx + 1;
  List.iter
    (fun q -> if q >= 0 && q < Array.length s.s_wire then s.s_wire.(q) <- (idx, op) :: s.s_wire.(q))
    op.op_qubits;
  maybe_flush s

let stream_drain s =
  match s.s_sink with
  | None -> ()
  | Some sink ->
      List.iter sink (List.rev s.s_rev);
      s.s_rev <- [];
      s.s_oldest <- s.s_total;
      Array.fill s.s_wire 0 (Array.length s.s_wire) []

let stream_rev s = s.s_rev
let stream_total s = s.s_total
let stream_wire s q = s.s_wire.(q)

type bonus_fn =
  stream:stream -> mapping:mapping -> int -> int -> float * (out_op -> unit)

(* shared constants so the no-bonus paths (every SABRE candidate, and every
   NASSC candidate that does not advance the front) allocate nothing *)
let no_action : out_op -> unit = fun _ -> ()
let no_bonus = (0.0, no_action)
let zero_bonus ~stream:_ ~mapping:_ _ _ = no_bonus

type result = {
  routed : out_op list;
  initial_layout : int array;
  final_layout : int array;
  n_swaps : int;
}

type stream_stats = {
  st_initial_layout : int array;
  st_final_layout : int array;
  st_n_swaps : int;
  st_gates_in : int;
  st_peak_resident : int;
}

(* The canonical seed-derived streams.  [route_rng] replays the stream the
   engine historically created inside [route_once] ([Rng.create seed]);
   [layout_rng] the one [find_layout] used for its initial permutation
   ([seed + 7919]).  Keeping these as the defaults means a fixed seed
   reproduces pre-refactor outputs bit-for-bit, while callers (the trials
   engine, tests) can now inject their own streams. *)
let route_rng params = Rng.create params.seed
let layout_rng params = Rng.create (params.seed + 7919)

(* observability probes: all no-ops unless a Qobs collector is installed *)
let c_candidates = Qobs.counter "engine.swap_candidates_scored"
let c_h_basic = Qobs.counter "engine.h_basic_evals"
let c_h_lookahead = Qobs.counter "engine.h_lookahead_evals"
let c_swaps = Qobs.counter "engine.swaps_emitted"
let c_force = Qobs.counter "engine.force_progress_escapes"
let c_score_cache = Qobs.counter "engine.score_cache_hits"
let g_predicted = Qobs.gauge "engine.predicted_cnot_savings"
let g_window_peak = Qobs.gauge "engine.window_peak_resident"

(* score-distribution histograms, fed only while the flight recorder is
   enabled so plain --trace output stays byte-identical to older builds *)
let h_candidate = Qobs.histogram "engine.candidate_h"
let h_chosen = Qobs.histogram "engine.chosen_h"
let h_front = Qobs.histogram "engine.front_size"

(* per-step scoring latency; wall clock, so only fed under the explicit
   Qobs.set_timing opt-in (deterministic traces stay deterministic) *)
let h_score_time = Qobs.histogram "engine.step_score_ms"

(* ---- incremental candidate scoring ----

   The lookahead heuristic needs, per candidate SWAP (p1, p2), the front
   and extended distance sums under the exchanged mapping.  Only pairs
   touching p1 or p2 change, so each step precomputes the unexchanged base
   sums plus a per-physical-qubit -> pairs index, and each candidate is
   scored as base + delta over the touching pairs: O(deg) per candidate
   instead of O(|F| + |E|).

   Seed-compatibility invariant: for the hop metric every distance is a
   small exact integer, so base + delta is the exact same float the full
   rescan produced.  For non-integral metrics (eq. 3) the delta-form sum
   could differ from the rescan in the last ulp; the golden corpus pins
   the routed outputs for those too.  When a base sum is infinite
   (disconnected pairs) delta arithmetic would produce NaN, so scoring
   falls back to the full rescan for that step.

   The pairs and the index are flat int arrays reused by every step.  The
   index of a qubit is a linked list threaded through [next], newest pair
   first.  That fixes the order in which each delta adds its floats, and
   the routing goldens were recorded with it: under a non-integral metric
   another order can round differently (DESIGN.md §23).  A SWAP that
   retired nothing leaves the step's pairs in place with two qubits
   exchanged, so the next step renames them ([swap]) instead of loading
   them again (DESIGN.md §28).

   Dense matrices keep the historical single-offset flat read; on-demand
   matrices ([Distmat.hops_lazy], used by the streaming engine on
   mega-scale devices) go through the row cache — same values, so scores
   and outputs are unchanged either way.  One set of loops serves both:
   the representation is fixed when the scorer is created. *)

module Scoring = struct
  (* Pair [i] is [(a.(i), b.(i))]; index entries [2i] and [2i + 1] stand
     for its endpoints [a.(i)] and [b.(i)] (the second only when
     [b.(i) <> a.(i)]).  [head.(q)] is the newest entry of a pair touching
     [q], or -1, and [next] links each entry to the next older one.
     [dab.(i)] is pair [i]'s distance and [base.(0)] their sum, added in
     pair order (a one-cell float array, so adding to it allocates
     nothing). *)
  type set = {
    mutable a : int array;
    mutable b : int array;
    mutable dab : float array;
    mutable n : int;
    mutable next : int array;
    head : int array;
    base : float array;
  }

  type t = {
    front : set;
    ext : set;
    d : float array;  (* dense flat backing, [||] for on-demand matrices *)
    dn : int;
    dm : Distmat.t;
    dense : bool;
    mutable finite : bool;  (** both bases finite: delta scoring is valid *)
    mutable evals : int;  (** pair distance evaluations since [prepare] *)
  }

  let make_set ~n_phys ~capacity =
    let capacity = max 1 capacity in
    {
      a = Array.make capacity 0;
      b = Array.make capacity 0;
      dab = Array.make capacity 0.0;
      n = 0;
      next = Array.make (2 * capacity) (-1);
      head = Array.make n_phys (-1);
      base = [| 0.0 |];
    }

  let create ~dist ~capacity =
    let n_phys = Distmat.n dist and dense = Distmat.is_dense dist in
    {
      front = make_set ~n_phys ~capacity;
      ext = make_set ~n_phys ~capacity;
      d = (if dense then Distmat.raw dist else [||]);
      dn = n_phys;
      dm = dist;
      dense;
      finite = true;
      evals = 0;
    }

  let clear_set s =
    let a = s.a and b = s.b and head = s.head in
    for i = 0 to s.n - 1 do
      head.(a.(i)) <- -1;
      head.(b.(i)) <- -1
    done;
    s.n <- 0;
    s.base.(0) <- 0.0

  let clear t =
    clear_set t.front;
    clear_set t.ext

  (* one distance read: the representation is a field of [t], tested on
     every read but never refetched from the matrix *)
  let[@inline] dist dense d dn dm x y = if dense then d.((x * dn) + y) else Distmat.get dm x y

  (* append pair [(p, q)], link it into the index as the newest pair of
     both endpoints and add its distance to the base *)
  let add t s p q =
    let i = s.n in
    if i = Array.length s.a then begin
      let grow arr len = Array.append arr (Array.make len 0) in
      s.a <- grow s.a i;
      s.b <- grow s.b i;
      s.dab <- Array.append s.dab (Array.make i 0.0);
      s.next <- grow s.next (2 * i)
    end;
    let dpq = dist t.dense t.d t.dn t.dm p q in
    s.a.(i) <- p;
    s.b.(i) <- q;
    s.dab.(i) <- dpq;
    s.n <- i + 1;
    let head = s.head and next = s.next in
    next.(2 * i) <- head.(p);
    head.(p) <- 2 * i;
    if q <> p then begin
      next.((2 * i) + 1) <- head.(q);
      head.(q) <- (2 * i) + 1
    end;
    s.base.(0) <- s.base.(0) +. dpq

  let add_front t p q = add t t.front p q
  let add_ext t p q = add t t.ext p q

  (* The set a fresh [clear] and [add]s would build once the mapping has
     exchanged [p1] and [p2]: the same pairs in the same order, their
     endpoints exchanged.  The pairs touching [p1] are renamed first, then
     those touching [p2] but not [p1] (as [delta] visits them).  Each
     index list then belongs to the other qubit and keeps its newest-first
     order, and the distances are read and summed again in pair order. *)
  let swap_set t s p1 p2 =
    let a = s.a and b = s.b and next = s.next and head = s.head in
    let e = ref head.(p1) in
    while !e >= 0 do
      let i = !e lsr 1 in
      let x = a.(i) and y = b.(i) in
      a.(i) <- (if x = p1 then p2 else if x = p2 then p1 else x);
      b.(i) <- (if y = p1 then p2 else if y = p2 then p1 else y);
      e := next.(!e)
    done;
    e := head.(p2);
    while !e >= 0 do
      let i = !e lsr 1 in
      let x = a.(i) and y = b.(i) in
      if x <> p1 && y <> p1 then begin
        a.(i) <- (if x = p2 then p1 else x);
        b.(i) <- (if y = p2 then p1 else y)
      end;
      e := next.(!e)
    done;
    let h1 = head.(p1) in
    head.(p1) <- head.(p2);
    head.(p2) <- h1;
    let dense = t.dense and d = t.d and dn = t.dn and dm = t.dm and dab = s.dab in
    let sum = ref 0.0 in
    for i = 0 to s.n - 1 do
      let v = dist dense d dn dm a.(i) b.(i) in
      dab.(i) <- v;
      sum := !sum +. v
    done;
    s.base.(0) <- !sum

  let swap t p1 p2 =
    swap_set t t.front p1 p2;
    swap_set t t.ext p1 p2

  let prepare t =
    t.finite <- Float.is_finite t.front.base.(0) && Float.is_finite t.ext.base.(0);
    t.evals <- 0

  let base_front t = t.front.base.(0)
  let base_ext t = t.ext.base.(0)
  let pair_evals t = t.evals

  let full_after t p1 p2 s =
    let dense = t.dense and d = t.d and dn = t.dn and dm = t.dm in
    let sum = ref 0.0 in
    for i = 0 to s.n - 1 do
      let x = s.a.(i) and y = s.b.(i) in
      let x = if x = p1 then p2 else if x = p2 then p1 else x in
      let y = if y = p1 then p2 else if y = p2 then p1 else y in
      sum := !sum +. dist dense d dn dm x y
    done;
    t.evals <- t.evals + s.n;
    !sum

  (* The change over the pairs touching p1, then over those touching p2
     but not p1 (the others were counted already), each newest first.
     An entry's parity says which endpoint is the indexed qubit, so only
     the other one is looked up; the unexchanged distance is [dab]'s.
     The evaluations are counted in a local and stored once. *)
  let[@inline] delta t s p1 p2 =
    let dense = t.dense and d = t.d and dn = t.dn and dm = t.dm in
    let a = s.a and b = s.b and dab = s.dab and next = s.next in
    let sum = ref 0.0 and evals = ref 0 in
    let e = ref s.head.(p1) in
    while !e >= 0 do
      let i = !e lsr 1 in
      let moved =
        if !e land 1 = 0 then
          let y = b.(i) in
          dist dense d dn dm p2 (if y = p1 then p2 else if y = p2 then p1 else y)
        else
          let x = a.(i) in
          dist dense d dn dm (if x = p2 then p1 else x) p2
      in
      incr evals;
      sum := !sum +. (moved -. dab.(i));
      e := next.(!e)
    done;
    e := s.head.(p2);
    while !e >= 0 do
      let i = !e lsr 1 in
      if !e land 1 = 0 then begin
        let y = b.(i) in
        if y <> p1 then begin
          incr evals;
          sum := !sum +. (dist dense d dn dm p1 (if y = p2 then p1 else y) -. dab.(i))
        end
      end
      else begin
        let x = a.(i) in
        if x <> p1 then begin
          incr evals;
          sum := !sum +. (dist dense d dn dm x p1 -. dab.(i))
        end
      end;
      e := next.(!e)
    done;
    t.evals <- t.evals + !evals;
    !sum

  let[@inline] after t s p1 p2 =
    if t.finite then s.base.(0) +. delta t s p1 p2 else full_after t p1 p2 s

  let[@inline] front_after t p1 p2 = after t t.front p1 p2
  let[@inline] ext_after t p1 p2 = after t t.ext p1 p2
end

(* ---- candidate SWAP enumeration ----

   A step's candidates are the coupling edges touching a physical qubit of
   a front gate, and their order is the tie-break order [Rng.pick] sees.
   That order is pinned to the one the routers have always used:
   [replace] each [(min p nb, max p nb)] into a fresh [Hashtbl.create 32],
   then fold it with [k :: acc].  The stdlib fixes that order: [replace]
   puts a new key at the head of bucket [hash land (nb - 1)]; a resize
   (when the count exceeds [2 * nb]) doubles [nb] and keeps each bucket's
   order; the fold walks the buckets upwards, heads first, and consing
   reverses it all.  So the list runs through the buckets downwards, each
   bucket in first-insertion order.  [order] replays that rule on edge ids
   with [Hashtbl.hash], which is unseeded, so unlike a real table the
   order also holds under [OCAMLRUNPARAM=R]. *)

module Candidates = struct
  type t = {
    initial : int;  (* the bucket count [Hashtbl.create] starts from *)
    eids : int array array;  (* per physical qubit: its edges' ids, in
                                [Coupling.neighbors] order *)
    lo : int array;  (* per edge id: the smaller endpoint *)
    hi : int array;
    hash : int array;  (* [Hashtbl.hash (lo, hi)] *)
    stamp : int array;  (* per edge id: the last step it was added in *)
    mutable epoch : int;
    ins : int array;  (* this step's distinct edges, first-insertion order *)
    mutable count : int;
    ord : int array;  (* the same edges in the stdlib's fold order *)
    counts : int array;  (* per-bucket offsets for the counting sort *)
  }

  (* the bucket count of a table that starts with [nb] buckets after [n]
     distinct insertions *)
  let rec buckets nb n = if n > 2 * nb then buckets (2 * nb) n else nb

  let create ~initial_buckets coupling =
    let edges = Array.of_list (Coupling.edges coupling) in
    let n_edges = Array.length edges in
    let id = Hashtbl.create (2 * n_edges) in
    Array.iteri (fun e key -> Hashtbl.replace id key e) edges;
    let rec pow2_above s = if s >= initial_buckets then s else pow2_above (2 * s) in
    let initial = pow2_above 16 in
    {
      initial;
      eids =
        Array.init (Coupling.n_qubits coupling) (fun p ->
            Array.of_list
              (List.map
                 (fun q -> Hashtbl.find id (min p q, max p q))
                 (Coupling.neighbors coupling p)));
      lo = Array.map fst edges;
      hi = Array.map snd edges;
      hash = Array.map Hashtbl.hash edges;
      stamp = Array.make n_edges 0;
      epoch = 0;
      ins = Array.make n_edges 0;
      count = 0;
      ord = Array.make n_edges 0;
      counts = Array.make (buckets initial n_edges) 0;
    }

  let capacity t = Array.length t.ins

  let clear t =
    t.epoch <- t.epoch + 1;
    t.count <- 0

  let add t p =
    let eids = t.eids.(p) in
    for j = 0 to Array.length eids - 1 do
      let e = eids.(j) in
      if t.stamp.(e) <> t.epoch then begin
        t.stamp.(e) <- t.epoch;
        t.ins.(t.count) <- e;
        t.count <- t.count + 1
      end
    done

  (* the ordering rule: a stable counting sort of [ins] by bucket,
     highest bucket first *)
  let order t =
    let n = t.count in
    let nb = buckets t.initial n in
    let mask = nb - 1 in
    Array.fill t.counts 0 nb 0;
    for i = 0 to n - 1 do
      let b = t.hash.(t.ins.(i)) land mask in
      t.counts.(b) <- t.counts.(b) + 1
    done;
    let start = ref 0 in
    for b = nb - 1 downto 0 do
      let c = t.counts.(b) in
      t.counts.(b) <- !start;
      start := !start + c
    done;
    for i = 0 to n - 1 do
      let e = t.ins.(i) in
      let b = t.hash.(e) land mask in
      t.ord.(t.counts.(b)) <- e;
      t.counts.(b) <- t.counts.(b) + 1
    done;
    n

  let p1 t i = t.lo.(t.ord.(i))
  let p2 t i = t.hi.(t.ord.(i))
end

(* What a route reuses from step to step and, in [find_layout], from pass
   to pass: the candidate tables, the scorer, the per-candidate scores,
   the decay, the front snapshot and the lookahead, and the device's
   adjacency (read here rather than through [Coupling.connected], a call
   the dev profile's [-opaque] build cannot inline).  Every pass starts
   by resetting what it reads. *)
type workspace = {
  cands : Candidates.t;
  scoring : Scoring.t;
  c_h : float array;
  c_basic : float array;
  c_ext : float array;
  c_bonus : float array;
  c_action : (out_op -> unit) array;
  decay : float array;
  mutable fh : int array;  (* a front snapshot: node handles *)
  mutable fa : int array;  (* and their qubits (-1 for a one-qubit gate) *)
  mutable fb : int array;
  eh : int array;  (* the lookahead: node handles *)
  ea : int array;  (* and their qubits *)
  eb : int array;
  conn : Bytes.t;  (* row-major adjacency: '\001' where two qubits are coupled *)
}

let workspace params coupling ~dist =
  let n_phys = Coupling.n_qubits coupling in
  let cands = Candidates.create ~initial_buckets:32 coupling in
  let cap = Candidates.capacity cands in
  let ext_cap = max 0 params.ext_size in
  {
    cands;
    scoring = Scoring.create ~dist ~capacity:(max ext_cap (n_phys / 2));
    c_h = Array.make cap 0.0;
    c_basic = Array.make cap 0.0;
    c_ext = Array.make cap 0.0;
    c_bonus = Array.make cap 0.0;
    c_action = Array.make cap no_action;
    decay = Array.make n_phys 1.0;
    (* front gates share no wire: as many as the qubits, unless a gate
       acts on none *)
    fh = Array.make n_phys 0;
    fa = Array.make n_phys 0;
    fb = Array.make n_phys 0;
    eh = Array.make ext_cap 0;
    ea = Array.make ext_cap 0;
    eb = Array.make ext_cap 0;
    conn =
      (let conn = Bytes.make (n_phys * n_phys) '\000' in
       List.iter
         (fun (a, b) ->
           Bytes.set conn ((a * n_phys) + b) '\001';
           Bytes.set conn ((b * n_phys) + a) '\001')
         (Coupling.edges coupling);
       conn);
  }

(* The main routing loop over the circuit's DAG [sd]; returns the SWAP
   count.  [oracle] is the exact-window hook ([?window] of [route_once]).
   With [stream = None] (a layout-search pass) nothing is emitted and
   [bonus] is never called: the pass only moves [mapping]. *)
let route_core params coupling ~ws ~rng ~bonus ~oracle ~stream ~mapping sd =
  let n_phys = Coupling.n_qubits coupling in
  let { cands; scoring; c_h; c_basic; c_ext; c_bonus; c_action; decay; eh; ea; eb; conn; _ } =
    ws
  in
  let n_swaps = ref 0 in
  Array.fill decay 0 n_phys 1.0;
  let stall = ref 0 in
  (* The per-front cache (DESIGN.md §23): the two-qubit gates of the front
     and of the lookahead window as logical pairs.  The front and the
     lookahead change only when a gate executes ([Streamdag] admits gates
     only on [create] and [execute]), so the cache is rebuilt only once the
     executed count has moved past [cached_at], and the SWAPs of a stuck
     front read nothing from the DAG.  It is built on stuck fronts only,
     which hold no one-qubit gate, so while it is fresh the front is
     exactly its [nf] pairs, [ws.fa.(i), ws.fb.(i)].  Those arrays also
     hold [drain]'s front snapshots: a drain runs whenever the cache is
     stale, and its last round reads the stuck front the cache is built
     from, at executed count [snap_at]. *)
  let cached_at = ref (-1) in
  let nf = ref 0 and ne = ref 0 in
  let snap_n = ref 0 and snap_at = ref (-1) in
  let snapshot () =
    let m = Streamdag.front_into sd ws.fh ws.fa ws.fb in
    if m > Array.length ws.fh then begin
      ws.fh <- Array.make m 0;
      ws.fa <- Array.make m 0;
      ws.fb <- Array.make m 0;
      ignore (Streamdag.front_into sd ws.fh ws.fa ws.fb)
    end;
    snap_n := m;
    snap_at := Streamdag.executed_count sd
  in
  let ext_cap = Array.length ea in
  let refresh () =
    let executed = Streamdag.executed_count sd in
    if !cached_at <> executed then begin
      cached_at := executed;
      if !snap_at <> executed then snapshot ();
      (* keep the snapshot's two-qubit gates: on a stuck front, all of it *)
      let fa = ws.fa and fb = ws.fb in
      nf := 0;
      for i = 0 to !snap_n - 1 do
        if fa.(i) >= 0 then begin
          fa.(!nf) <- fa.(i);
          fb.(!nf) <- fb.(i);
          incr nf
        end
      done;
      snap_at := -1;
      ne := Streamdag.lookahead_into sd ext_cap eh ea eb
    end
  in
  (* the cached front as physical pairs, for the oracle, [Routing_stuck]
     and the recorder *)
  let front_pairs () =
    List.init !nf (fun i -> (mapping.l2p.(ws.fa.(i)), mapping.l2p.(ws.fb.(i))))
  in
  let[@inline] connected p q = Bytes.get conn ((p * n_phys) + q) = '\001' in
  (* after a SWAP that retired nothing the front is the cached pairs, so
     it can drain only if one of them is now coupled *)
  let stuck () =
    !cached_at = Streamdag.executed_count sd
    &&
    let fa = ws.fa and fb = ws.fb and l2p = mapping.l2p in
    let i = ref 0 in
    while !i < !nf && not (connected l2p.(fa.(!i)) l2p.(fb.(!i))) do
      incr i
    done;
    !i = !nf
  in
  (* [action] is the winning candidate's bonus callback, run on its op *)
  let emit_swap p1 p2 action =
    match stream with
    | None -> ()
    | Some s ->
        let op = { gate = Gate.SWAP; op_qubits = [ p1; p2 ]; tag = Swap_plain } in
        stream_push s op;
        action op
  in
  let emit_mapped h =
    match stream with
    | None -> ()
    | Some s ->
        stream_push s
          {
            gate = Streamdag.gate sd h;
            op_qubits = List.map (fun q -> mapping.l2p.(q)) (Streamdag.qubits sd h);
            tag = Not_swap;
          }
  in
  (* execute every currently executable front gate, round after round
     until none is; returns true if any.  Each round reads the front into
     a snapshot first, so the gates it promotes wait for the next round,
     as they did when the round filtered a front list.  The last round
     finds nothing to execute, so its snapshot is the stuck front. *)
  let drain () =
    let any = ref false and more = ref true in
    while !more do
      snapshot ();
      let fh = ws.fh and fa = ws.fa and fb = ws.fb and l2p = mapping.l2p in
      let executed = ref false in
      for i = 0 to !snap_n - 1 do
        let a = fa.(i) in
        if a < 0 || connected l2p.(a) l2p.(fb.(i)) then begin
          emit_mapped fh.(i);
          Streamdag.execute sd fh.(i);
          executed := true
        end
      done;
      if !executed then any := true else more := false
    done;
    !any
  in
  (* the scorer holds the cached pairs under the mapping before SWAP
     [(last_p1, last_p2)] while the executed count is [scored_at]; a SWAP
     the scorer did not choose resets it *)
  let scored_at = ref (-1) and last_p1 = ref 0 and last_p2 = ref 0 in
  let apply_best_swap () =
    refresh ();
    let nf = !nf and ne = !ne in
    let traced = Qobs.active () in
    (* the scorer's pairs: those of the step before, renamed, when only
       its SWAP has happened since *)
    if !scored_at = !cached_at then Scoring.swap scoring !last_p1 !last_p2
    else begin
      Scoring.clear scoring;
      let fa = ws.fa and fb = ws.fb and l2p = mapping.l2p in
      for i = 0 to nf - 1 do
        Scoring.add_front scoring l2p.(fa.(i)) l2p.(fb.(i))
      done;
      for i = 0 to ne - 1 do
        Scoring.add_ext scoring l2p.(ea.(i)) l2p.(eb.(i))
      done;
      scored_at := !cached_at
    end;
    (* candidate swaps: all couplings touching a physical qubit of a front
       gate (the scorer's front pairs, in front order), in the order a
       [Hashtbl.create 32] would fold them *)
    Candidates.clear cands;
    let pa = scoring.front.a and pb = scoring.front.b in
    for i = 0 to nf - 1 do
      Candidates.add cands pa.(i);
      Candidates.add cands pb.(i)
    done;
    let n_cand = Candidates.order cands in
    let timing = traced && Qobs.timing_enabled () in
    let t0 = if timing then Unix.gettimeofday () else 0.0 in
    Scoring.prepare scoring;
    let base_front = Scoring.base_front scoring in
    let nf_f = float_of_int (max 1 nf) in
    let ne_f = float_of_int (max 1 ne) in
    (* W / |E|, the lookahead's weight: [w /. n *. x] is [(w /. n) *. x] *)
    let w_ext = params.ext_weight /. ne_f in
    let best_h = ref infinity in
    (* every decay is at least 1 and no h is NaN or -0.0, so plain
       comparisons pick what [Float.max] and [Float.min] would *)
    for i = 0 to n_cand - 1 do
      let p1 = Candidates.p1 cands i and p2 = Candidates.p2 cands i in
      let front_after = Scoring.front_after scoring p1 p2 in
      (* Optimization bonuses only discriminate between candidates that
         actually advance the front layer; a SWAP that cancels CNOTs but
         moves no qubit closer is still wasted work. *)
      let bonus_v =
        match stream with
        | Some stream when front_after < base_front -. 1e-9 ->
            let v, action = bonus ~stream ~mapping p1 p2 in
            c_action.(i) <- action;
            v
        | Some _ ->
            c_action.(i) <- no_action;
            0.0
        | None -> 0.0
      in
      (* the bonus enters H_basic at full weight: eq. 1 applied literally *)
      let h_basic = ((3.0 *. front_after) -. bonus_v) /. nf_f in
      let h_ext = if ne = 0 then 0.0 else w_ext *. Scoring.ext_after scoring p1 p2 in
      let d1 = decay.(p1) and d2 = decay.(p2) in
      let h = (h_basic +. h_ext) *. if d1 >= d2 then d1 else d2 in
      c_h.(i) <- h;
      c_basic.(i) <- h_basic;
      c_ext.(i) <- h_ext;
      c_bonus.(i) <- bonus_v;
      if h < !best_h then best_h := h
    done;
    if traced then begin
      Qobs.add c_candidates n_cand;
      Qobs.add c_h_basic n_cand;
      if ne > 0 then Qobs.add c_h_lookahead n_cand;
      (* pair evaluations the delta scorer skipped relative to the full
         rescan of every front/extended pair per candidate *)
      let full = n_cand * (nf + ne) in
      Qobs.add c_score_cache (max 0 (full - Scoring.pair_evals scoring))
    end;
    if n_cand = 0 then
      raise (Routing_stuck { front = front_pairs (); l2p = Array.copy mapping.l2p });
    let best_h = !best_h in
    (* the ties in candidate order: [Rng.pick] over their list takes the
       [Rng.int]-th of them *)
    let n_ties = ref 0 in
    for i = 0 to n_cand - 1 do
      if c_h.(i) <= best_h +. 1e-12 then incr n_ties
    done;
    let k = ref (Rng.int rng !n_ties) and chosen = ref 0 in
    while c_h.(!chosen) > best_h +. 1e-12 || !k > 0 do
      if c_h.(!chosen) <= best_h +. 1e-12 then decr k;
      incr chosen
    done;
    let chosen = !chosen in
    let p1 = Candidates.p1 cands chosen and p2 = Candidates.p2 cands chosen in
    let bonus_v = c_bonus.(chosen) in
    if timing then Qobs.observe h_score_time ((Unix.gettimeofday () -. t0) *. 1000.0);
    if traced && Qobs.Recorder.active () then begin
      Qobs.Recorder.record_step ~front:nf
        ~candidates:
          (List.init n_cand (fun i ->
               {
                 Qobs.Recorder.p1 = Candidates.p1 cands i;
                 p2 = Candidates.p2 cands i;
                 h_basic = c_basic.(i);
                 h_lookahead = c_ext.(i);
                 h = c_h.(i);
                 bonus = c_bonus.(i);
               }))
        ~chosen:(p1, p2) ~chosen_bonus:bonus_v ();
      for i = 0 to n_cand - 1 do
        Qobs.observe h_candidate c_h.(i)
      done;
      Qobs.observe h_chosen best_h;
      Qobs.observe h_front (float_of_int nf)
    end;
    emit_swap p1 p2 c_action.(chosen);
    apply_swap mapping p1 p2;
    last_p1 := p1;
    last_p2 := p2;
    incr n_swaps;
    if traced then begin
      Qobs.incr c_swaps;
      (* eq. 1's prediction for the chosen SWAP: the CNOTs the downstream
         passes are expected to recover.  Paired with the realized savings
         recorded by the pipeline, this turns the paper's central claim
         into a runtime metric. *)
      Qobs.gauge_add g_predicted bonus_v
    end;
    decay.(p1) <- decay.(p1) +. decay_delta;
    decay.(p2) <- decay.(p2) +. decay_delta
  in
  (* an unscored SWAP (oracle or escape valve): emitted and applied
     verbatim — Swap_plain, so downstream finalizers treat it like any
     heuristic swap — and recorded as a single-candidate step so flight
     records stay replayable *)
  let apply_fixed_swap ~forced ~front_n (p, q) =
    scored_at := -1;
    emit_swap p q no_action;
    if Qobs.Recorder.active () then
      Qobs.Recorder.record_step ~front:front_n ~forced
        ~candidates:
          [
            {
              Qobs.Recorder.p1 = min p q;
              p2 = max p q;
              h_basic = 0.0;
              h_lookahead = 0.0;
              h = 0.0;
              bonus = 0.0;
            };
          ]
        ~chosen:(p, q) ~chosen_bonus:0.0 ();
    apply_swap mapping p q;
    incr n_swaps;
    Qobs.incr c_swaps
  in
  (* exact-window hook: on a stuck front, let the caller hand back a full
     SWAP sequence (the hybrid router's oracle).  Declining (None / empty)
     falls through to the heuristic path untouched; with no hook installed
     this is free and the engine's behavior is byte-identical to before. *)
  let try_window () =
    match oracle with
    | None -> false
    | Some solve -> (
        refresh ();
        match solve ~front:(front_pairs ()) with
        | None | Some [] -> false
        | Some swaps ->
            List.iter (apply_fixed_swap ~forced:false ~front_n:!nf) swaps;
            true)
  in
  let force_progress () =
    (* escape valve: route the first front 2q gate along a shortest path
       (the front is stuck, so that is the first cached pair) *)
    Qobs.incr c_force;
    refresh ();
    if !nf > 0 then begin
      let l2p = mapping.l2p in
      let rec walk = function
        | p :: q :: rest when rest <> [] ->
            apply_fixed_swap ~forced:true ~front_n:!nf (p, q);
            walk (q :: rest)
        | _ -> ()
      in
      walk (Coupling.shortest_path coupling l2p.(ws.fa.(0)) l2p.(ws.fb.(0)))
    end
  in
  while not (Streamdag.finished sd) do
    (* a drain that executed something ends on a round that executed
       nothing, so the front it leaves is stuck as well *)
    if (not (stuck ())) && drain () then begin
      stall := 0;
      Array.fill decay 0 n_phys 1.0
    end;
    (* on a stuck front nothing retired, so candidate generation and the
       escape valve see the very front the drain just tried *)
    if not (Streamdag.finished sd) then
      if try_window () then stall := 0
      else if !stall >= params.stall_limit then begin
        force_progress ();
        stall := 0
      end
      else begin
        apply_best_swap ();
        incr stall
      end
  done;
  !n_swaps

let check_sizes name coupling ~dist n_log =
  let n_phys = Coupling.n_qubits coupling in
  if n_log > n_phys then invalid_arg (name ^ ": circuit larger than device");
  if Distmat.n dist <> n_phys then
    invalid_arg (name ^ ": distance matrix size does not match device")

type plans = { forward : Streamdag.Plan.t; backward : Streamdag.Plan.t }

let plans c =
  {
    forward = Streamdag.Plan.of_circuit c;
    backward = Streamdag.Plan.of_circuit ~reverse:true c;
  }

let route_once params coupling ~rng ~dist ~bonus ?window ?dag:_ ?plan circuit init_layout =
  Qobs.span "engine.route_once" @@ fun () ->
  check_sizes "Engine.route_once" coupling ~dist (Qcircuit.Circuit.n_qubits circuit);
  let n_phys = Coupling.n_qubits coupling in
  let mapping = mapping_of_layout ~n_phys init_layout in
  let initial_layout = Array.copy mapping.l2p in
  let plan =
    match plan with Some p -> p | None -> Streamdag.Plan.of_circuit circuit
  in
  let stream = stream_create ~n_phys () in
  let n_swaps =
    route_core params coupling ~ws:(workspace params coupling ~dist) ~rng ~bonus
      ~oracle:window ~stream:(Some stream) ~mapping (Streamdag.of_plan plan)
  in
  {
    routed = List.rev stream.s_rev;
    initial_layout;
    final_layout = Array.copy mapping.l2p;
    n_swaps;
  }

let route_stream params coupling ~rng ~dist ~bonus ~window ?(keep = 64) ~sink source
    init_layout =
  Qobs.span "engine.route_stream" @@ fun () ->
  check_sizes "Engine.route_stream" coupling ~dist (Qcircuit.Source.n_qubits source);
  let n_phys = Coupling.n_qubits coupling in
  let mapping = mapping_of_layout ~n_phys init_layout in
  let initial_layout = Array.copy mapping.l2p in
  let sd = Streamdag.create ~window source in
  let stream = stream_create ~sink ~keep ~n_phys () in
  let n_swaps =
    route_core params coupling ~ws:(workspace params coupling ~dist) ~rng ~bonus ~oracle:None
      ~stream:(Some stream) ~mapping sd
  in
  stream_drain stream;
  Qobs.gauge_set g_window_peak (float_of_int (Streamdag.peak_resident sd));
  {
    st_initial_layout = initial_layout;
    st_final_layout = Array.copy mapping.l2p;
    st_n_swaps = n_swaps;
    st_gates_in = Streamdag.executed_count sd;
    st_peak_resident = Streamdag.peak_resident sd;
  }

let find_layout params coupling ~rng ~dist ~bonus ?dag:_ ?plans:given circuit =
  (* a layout pass has no output stream for a bonus to read *)
  if bonus != zero_bonus then invalid_arg "Engine.find_layout: bonus must be zero_bonus";
  Qobs.span "engine.find_layout" @@ fun () ->
  (* The forward/backward layout search routes the circuit repeatedly; only
     the final routing pass belongs in the flight record. *)
  Qobs.Recorder.without @@ fun () ->
  let n_phys = Coupling.n_qubits coupling in
  let n_log = Qcircuit.Circuit.n_qubits circuit in
  check_sizes "Engine.find_layout" coupling ~dist n_log;
  let perm = Rng.permutation rng n_phys in
  let layout = ref (Array.init n_log (fun l -> perm.(l))) in
  let { forward; backward } = match given with Some p -> p | None -> plans circuit in
  (* one walk and one workspace for every pass: each restarts them *)
  let sd = Streamdag.of_plan forward in
  let ws = workspace params coupling ~dist in
  (* a layout-only pass: [route_once]'s walk without an output stream,
     keeping only where the qubits end up.  Each pass replays a fresh
     route stream, matching the historical behavior (and SABRE's, where
     every pass is seeded alike). *)
  let pass plan layout =
    Qobs.span "engine.route_once" @@ fun () ->
    let mapping = mapping_of_layout ~n_phys layout in
    Streamdag.reset sd plan;
    ignore
      (route_core params coupling ~ws ~rng:(route_rng params) ~bonus ~oracle:None ~stream:None
         ~mapping sd);
    mapping.l2p
  in
  for _ = 1 to params.iterations do
    layout := pass backward (pass forward !layout)
  done;
  !layout

let to_circuit ~n_phys ops =
  Qcircuit.Circuit.create n_phys
    (List.map (fun op -> { Qcircuit.Circuit.gate = op.gate; qubits = op.op_qubits }) ops)
