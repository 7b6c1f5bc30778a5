open Mathkit
open Qgate
open Topology
module Streamdag = Qcircuit.Streamdag

type params = {
  ext_size : int;
  ext_weight : float;
  decay_delta : float;
  stall_limit : int;
  seed : int;
  iterations : int;
  bonus_weight : float;
}

let default_params =
  {
    ext_size = 20;
    ext_weight = 0.5;
    decay_delta = 0.001;
    stall_limit = 30;
    seed = 11;
    iterations = 3;
    bonus_weight = 1.0;
  }

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
   another order can round differently (DESIGN.md §23).

   Dense matrices keep the historical single-offset flat read; on-demand
   matrices ([Distmat.hops_lazy], used by the streaming engine on
   mega-scale devices) go through the row cache — same values, so scores
   and outputs are unchanged either way. *)

module Scoring = struct
  (* Pair [i] is [(a.(i), b.(i))]; index entries [2i] and [2i + 1] stand
     for its endpoints [a.(i)] and [b.(i)] (the second only when
     [b.(i) <> a.(i)]).  [head.(q)] is the newest entry of a pair touching
     [q], or -1, and [next] links each entry to the next older one. *)
  type set = {
    mutable a : int array;
    mutable b : int array;
    mutable n : int;
    mutable next : int array;
    head : int array;
    mutable base : float;
  }

  type t = {
    front : set;
    ext : set;
    mutable d : float array;  (* dense flat backing, [||] for on-demand matrices *)
    mutable dn : int;
    mutable dm : Distmat.t;
    mutable dense : bool;
    mutable finite : bool;  (** both bases finite: delta scoring is valid *)
    mutable evals : int;  (** pair distance evaluations since [prepare] *)
  }

  let make_set ~n_phys ~capacity =
    let capacity = max 1 capacity in
    {
      a = Array.make capacity 0;
      b = Array.make capacity 0;
      n = 0;
      next = Array.make (2 * capacity) (-1);
      head = Array.make n_phys (-1);
      base = 0.0;
    }

  let create ~n_phys ~capacity =
    {
      front = make_set ~n_phys ~capacity;
      ext = make_set ~n_phys ~capacity;
      d = [||];
      dn = 0;
      dm = Distmat.of_flat ~n:0 [||];
      dense = true;
      finite = true;
      evals = 0;
    }

  let unindex s =
    for i = 0 to s.n - 1 do
      s.head.(s.a.(i)) <- -1;
      s.head.(s.b.(i)) <- -1
    done

  let clear t =
    unindex t.front;
    unindex t.ext;
    t.front.n <- 0;
    t.ext.n <- 0

  let add s p q =
    if s.n = Array.length s.a then begin
      let grow arr len = Array.append arr (Array.make len 0) in
      s.a <- grow s.a s.n;
      s.b <- grow s.b s.n;
      s.next <- grow s.next (2 * s.n)
    end;
    s.a.(s.n) <- p;
    s.b.(s.n) <- q;
    s.n <- s.n + 1

  let add_front t p q = add t.front p q
  let add_ext t p q = add t.ext p q

  let[@inline] dget t a b =
    if t.dense then t.d.((a * t.dn) + b) else Distmat.get t.dm a b

  (* the base sum adds the pairs in order, as a full rescan does, so the
     unexchanged sums equal the rescan's bit for bit *)
  let index t s =
    unindex s;
    let sum = ref 0.0 in
    for i = 0 to s.n - 1 do
      let a = s.a.(i) and b = s.b.(i) in
      sum := !sum +. dget t a b;
      s.next.(2 * i) <- s.head.(a);
      s.head.(a) <- 2 * i;
      if b <> a then begin
        s.next.((2 * i) + 1) <- s.head.(b);
        s.head.(b) <- (2 * i) + 1
      end
    done;
    s.base <- !sum

  let prepare t ~dist =
    t.dense <- Distmat.is_dense dist;
    t.d <- (if t.dense then Distmat.raw dist else [||]);
    t.dn <- Distmat.n dist;
    t.dm <- dist;
    index t t.front;
    index t t.ext;
    t.finite <- Float.is_finite t.front.base && Float.is_finite t.ext.base;
    t.evals <- 0

  let base_front t = t.front.base
  let base_ext t = t.ext.base
  let pair_evals t = t.evals

  let[@inline] mapped t p1 p2 a b =
    let a' = if a = p1 then p2 else if a = p2 then p1 else a in
    let b' = if b = p1 then p2 else if b = p2 then p1 else b in
    dget t a' b'

  let full_after t p1 p2 s =
    let sum = ref 0.0 in
    for i = 0 to s.n - 1 do
      sum := !sum +. mapped t p1 p2 s.a.(i) s.b.(i)
    done;
    t.evals <- t.evals + s.n;
    !sum

  (* the change over the pairs touching p1, then over those touching p2
     but not p1 (the others were counted already), each newest first *)
  let[@inline] delta t s p1 p2 =
    let sum = ref 0.0 in
    let e = ref s.head.(p1) in
    while !e >= 0 do
      let i = !e lsr 1 in
      let a = s.a.(i) and b = s.b.(i) in
      t.evals <- t.evals + 1;
      sum := !sum +. (mapped t p1 p2 a b -. dget t a b);
      e := s.next.(!e)
    done;
    e := s.head.(p2);
    while !e >= 0 do
      let i = !e lsr 1 in
      let a = s.a.(i) and b = s.b.(i) in
      if a <> p1 && b <> p1 then begin
        t.evals <- t.evals + 1;
        sum := !sum +. (mapped t p1 p2 a b -. dget t a b)
      end;
      e := s.next.(!e)
    done;
    !sum

  let[@inline] after t s p1 p2 =
    if t.finite then s.base +. delta t s p1 p2 else full_after t p1 p2 s

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

(* The main routing loop over the circuit's DAG [sd]; returns the SWAP
   count.  [oracle] is the exact-window hook ([?window] of [route_once]).
   With [stream = None] (a layout-search pass) nothing is emitted and
   [bonus] is never called: the pass only moves [mapping]. *)
let route_core params coupling ~rng ~dist ~bonus ~oracle ~stream ~mapping sd =
  let n_phys = Coupling.n_qubits coupling in
  let cands = Candidates.create ~initial_buckets:32 coupling in
  (* per-candidate scores, reused by every step *)
  let cap = Candidates.capacity cands in
  let c_h = Array.make cap 0.0 in
  let c_basic = Array.make cap 0.0 in
  let c_ext = Array.make cap 0.0 in
  let c_bonus = Array.make cap 0.0 in
  let c_action = Array.make cap no_action in
  let n_swaps = ref 0 in
  let decay = Array.make n_phys 1.0 in
  let stall = ref 0 in
  (* The per-front cache (DESIGN.md §23): the two-qubit gates of the front
     and of the lookahead window as logical pairs.  The front and the
     lookahead change only when a gate executes ([Streamdag] admits gates
     only on [create] and [execute]), so the cache is rebuilt only once the
     executed count has moved past [cached_at], and the SWAPs of a stuck
     front read nothing from the DAG.  It is built on stuck fronts only,
     which hold no one-qubit gate, so while it is fresh the front is
     exactly these pairs.  Front gates share no wire: at most [n_phys] of them. *)
  let cached_at = ref (-1) in
  let fa = Array.make n_phys 0 and fb = Array.make n_phys 0 and nf = ref 0 in
  let ext_cap = max 0 params.ext_size in
  let ea = Array.make ext_cap 0 and eb = Array.make ext_cap 0 and ne = ref 0 in
  let scoring = Scoring.create ~n_phys ~capacity:(max ext_cap (n_phys / 2)) in
  let refresh () =
    if !cached_at <> Streamdag.executed_count sd then begin
      cached_at := Streamdag.executed_count sd;
      nf := 0;
      let h = ref (Streamdag.front_first sd) in
      while !h >= 0 do
        let a = Streamdag.qa sd !h in
        if a >= 0 then begin
          fa.(!nf) <- a;
          fb.(!nf) <- Streamdag.qb sd !h;
          incr nf
        end;
        h := Streamdag.front_next sd !h
      done;
      (* the lookahead's nodes land in [ea], then become their pairs *)
      ne := Streamdag.lookahead_into sd ext_cap ea;
      for i = 0 to !ne - 1 do
        let h = ea.(i) in
        ea.(i) <- Streamdag.qa sd h;
        eb.(i) <- Streamdag.qb sd h
      done
    end
  in
  (* the cached front as physical pairs, for the oracle, [Routing_stuck]
     and the recorder *)
  let front_pairs () =
    List.init !nf (fun i -> (mapping.l2p.(fa.(i)), mapping.l2p.(fb.(i))))
  in
  (* after a SWAP that retired nothing the front is the cached pairs, so
     it can drain only if one of them is now coupled *)
  let stuck () =
    !cached_at = Streamdag.executed_count sd
    &&
    let i = ref 0 in
    while
      !i < !nf
      && not (Coupling.connected coupling mapping.l2p.(fa.(!i)) mapping.l2p.(fb.(!i)))
    do
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
  let executable h =
    let a = Streamdag.qa sd h in
    a < 0 || Coupling.connected coupling mapping.l2p.(a) mapping.l2p.(Streamdag.qb sd h)
  in
  (* execute every currently executable front gate, round after round
     until none is; returns true if any.  Each round collects the ready
     nodes into [ready] first, so the gates it promotes wait for the next
     round, as they did when the round filtered a front list. *)
  let ready = ref (Array.make (max 1 n_phys) 0) in
  let drain () =
    let any = ref false and more = ref true in
    while !more do
      let m = ref 0 in
      let h = ref (Streamdag.front_first sd) in
      while !h >= 0 do
        if executable !h then begin
          if !m = Array.length !ready then
            ready := Array.append !ready (Array.make !m 0);
          !ready.(!m) <- !h;
          incr m
        end;
        h := Streamdag.front_next sd !h
      done;
      for i = 0 to !m - 1 do
        let h = !ready.(i) in
        emit_mapped h;
        Streamdag.execute sd h
      done;
      if !m = 0 then more := false else any := true
    done;
    !any
  in
  let apply_best_swap () =
    refresh ();
    let nf = !nf and ne = !ne in
    (* candidate swaps: all couplings touching a physical qubit of a front
       gate, in the order a [Hashtbl.create 32] would fold them *)
    Candidates.clear cands;
    Scoring.clear scoring;
    for i = 0 to nf - 1 do
      let pa = mapping.l2p.(fa.(i)) and pb = mapping.l2p.(fb.(i)) in
      Candidates.add cands pa;
      Candidates.add cands pb;
      Scoring.add_front scoring pa pb
    done;
    for i = 0 to ne - 1 do
      Scoring.add_ext scoring mapping.l2p.(ea.(i)) mapping.l2p.(eb.(i))
    done;
    let n_cand = Candidates.order cands in
    let timing = Qobs.timing_enabled () && Qobs.active () in
    let t0 = if timing then Unix.gettimeofday () else 0.0 in
    Scoring.prepare scoring ~dist;
    let base_front = Scoring.base_front scoring in
    let nf_f = float_of_int (max 1 nf) in
    let ne_f = float_of_int (max 1 ne) in
    let best_h = ref infinity in
    for i = 0 to n_cand - 1 do
      let p1 = Candidates.p1 cands i and p2 = Candidates.p2 cands i in
      let front_after = Scoring.front_after scoring p1 p2 in
      (* Optimization bonuses only discriminate between candidates that
         actually advance the front layer; a SWAP that cancels CNOTs but
         moves no qubit closer is still wasted work. *)
      let bonus_v, action =
        match stream with
        | Some stream when front_after < base_front -. 1e-9 -> bonus ~stream ~mapping p1 p2
        | _ -> no_bonus
      in
      let h_basic = ((3.0 *. front_after) -. (params.bonus_weight *. bonus_v)) /. nf_f in
      let h_ext =
        if ne = 0 then 0.0 else params.ext_weight /. ne_f *. Scoring.ext_after scoring p1 p2
      in
      let h = (h_basic +. h_ext) *. Float.max decay.(p1) decay.(p2) in
      c_h.(i) <- h;
      c_basic.(i) <- h_basic;
      c_ext.(i) <- h_ext;
      c_bonus.(i) <- bonus_v;
      c_action.(i) <- action;
      best_h := Float.min !best_h h
    done;
    if Qobs.active () then begin
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
    (* the ties in candidate order: [Rng.pick]'s choice depends on it *)
    let ties = ref [] in
    for i = n_cand - 1 downto 0 do
      if c_h.(i) <= best_h +. 1e-12 then ties := i :: !ties
    done;
    let chosen = Rng.pick rng !ties in
    let p1 = Candidates.p1 cands chosen and p2 = Candidates.p2 cands chosen in
    let bonus_v = c_bonus.(chosen) in
    if timing then Qobs.observe h_score_time ((Unix.gettimeofday () -. t0) *. 1000.0);
    if Qobs.Recorder.active () then begin
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
    incr n_swaps;
    Qobs.incr c_swaps;
    (* eq. 1's prediction for the chosen SWAP: the CNOTs the downstream
       passes are expected to recover.  Paired with the realized savings
       recorded by the pipeline, this turns the paper's central claim
       into a runtime metric. *)
    Qobs.gauge_add g_predicted bonus_v;
    decay.(p1) <- decay.(p1) +. params.decay_delta;
    decay.(p2) <- decay.(p2) +. params.decay_delta
  in
  (* an unscored SWAP (oracle or escape valve): emitted and applied
     verbatim — Swap_plain, so downstream finalizers treat it like any
     heuristic swap — and recorded as a single-candidate step so flight
     records stay replayable *)
  let apply_fixed_swap ~forced ~front_n (p, q) =
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
    (* escape valve: route the first front 2q gate along a shortest path *)
    Qobs.incr c_force;
    let h = Streamdag.front_first sd in
    if h >= 0 && Streamdag.qa sd h >= 0 then begin
      let pa = mapping.l2p.(Streamdag.qa sd h) and pb = mapping.l2p.(Streamdag.qb sd h) in
      let path = Coupling.shortest_path coupling pa pb in
      let front_n =
        if Qobs.Recorder.active () then begin
          refresh ();
          !nf
        end
        else 0
      in
      let rec walk = function
        | p :: q :: rest when rest <> [] ->
            apply_fixed_swap ~forced:true ~front_n (p, q);
            walk (q :: rest)
        | _ -> ()
      in
      walk path
    end
  in
  while not (Streamdag.finished sd) do
    (* on a stuck front nothing retired, so candidate generation and the
       escape valve see the very front the drain just tried *)
    if (not (stuck ())) && drain () then begin
      stall := 0;
      Array.fill decay 0 n_phys 1.0
    end
    else if try_window () then stall := 0
    else begin
      if !stall >= params.stall_limit then begin
        force_progress ();
        stall := 0
      end
      else begin
        apply_best_swap ();
        incr stall
      end
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
    route_core params coupling ~rng ~dist ~bonus ~oracle:window ~stream:(Some stream)
      ~mapping (Streamdag.of_plan plan)
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
    route_core params coupling ~rng ~dist ~bonus ~oracle:None ~stream:(Some stream)
      ~mapping sd
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
  (* one walk for every pass: each restarts it on a plan *)
  let sd = Streamdag.of_plan forward in
  (* a layout-only pass: [route_once]'s walk without an output stream,
     keeping only where the qubits end up.  Each pass replays a fresh
     route stream, matching the historical behavior (and SABRE's, where
     every pass is seeded alike). *)
  let pass plan layout =
    Qobs.span "engine.route_once" @@ fun () ->
    let mapping = mapping_of_layout ~n_phys layout in
    Streamdag.reset sd plan;
    ignore
      (route_core params coupling ~rng:(route_rng params) ~dist ~bonus ~oracle:None
         ~stream:None ~mapping sd);
    mapping.l2p
  in
  for _ = 1 to params.iterations do
    layout := pass backward (pass forward !layout)
  done;
  !layout

let to_circuit ~n_phys ops =
  Qcircuit.Circuit.create n_phys
    (List.map (fun op -> { Qcircuit.Circuit.gate = op.gate; qubits = op.op_qubits }) ops)
