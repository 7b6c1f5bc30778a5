(* The incremental (delta) candidate scorer against a reference full-rescan
   implementation — the scorer the engine used before the incremental
   rework.  The engine's seed-compatibility rests on base + delta being
   (bit-)equal to the full rescan for hop metrics and within the 1e-12 tie
   tolerance for the noise-aware metric; this file checks exactly that,
   plus the per-wire window semantics of the NASSC bonus scans. *)

open Qgate
module Engine = Qroute.Engine
module Nassc = Qroute.Nassc

(* ---- reference scorer: the old O(|F| + |E|) full rescan ---- *)

let ref_sum dist p1 p2 pairs =
  List.fold_left
    (fun acc (a, b) ->
      let m q = if q = p1 then p2 else if q = p2 then p1 else q in
      acc +. Topology.Distmat.get dist (m a) (m b))
    0.0 pairs

(* the four topology families of the paper's evaluation *)
let topologies =
  [
    ("linear7", Topology.Devices.linear 7);
    ("ring7", Topology.Devices.ring 7);
    ("grid2x4", Topology.Devices.grid 2 4);
    ("heavyhex2x2", Topology.Devices.heavy_hex 2 2);
  ]

(* per topology: the dense hop metric, the same hops computed row by row
   on demand ([Distmat.hops_lazy], the streaming engine's matrix, read
   through the row cache) and the noise-aware metric.  Each instance keeps
   one scorer whose initial capacity (4 pairs) is below the generated pair
   counts, so the properties also run its growth path and its reset
   between samples *)
let instances =
  List.concat_map
    (fun (tname, coupling) ->
      let n_phys = Topology.Coupling.n_qubits coupling in
      let inst name dist integral =
        (name, n_phys, dist, integral, Engine.Scoring.create ~dist ~capacity:4)
      in
      [
        inst (tname ^ "/hop") (Topology.Distmat.hops coupling) true;
        inst (tname ^ "/lazy") (Topology.Distmat.hops_lazy coupling) true;
        inst (tname ^ "/noise")
          (Topology.Calibration.noise_distmat (Topology.Calibration.generate coupling))
          false;
      ])
    topologies

let gen_case =
  QCheck.Gen.(
    let* inst = int_range 0 (List.length instances - 1) in
    let _, n_phys, _, _, _ = List.nth instances inst in
    let pair = map2 (fun a b -> (a, b)) (int_range 0 (n_phys - 1)) (int_range 0 (n_phys - 1)) in
    let* front = list_size (int_range 0 10) pair in
    let* ext = list_size (int_range 0 40) pair in
    let* p1 = int_range 0 (n_phys - 1) in
    let* p2 = int_range 0 (n_phys - 1) in
    return (inst, front, ext, p1, if p2 = p1 then (p1 + 1) mod n_phys else p2))

let prepare scratch ~front ~ext =
  Engine.Scoring.clear scratch;
  List.iter (fun (a, b) -> Engine.Scoring.add_front scratch a b) front;
  List.iter (fun (a, b) -> Engine.Scoring.add_ext scratch a b) ext;
  Engine.Scoring.prepare scratch;
  scratch

let prop_delta_equals_full (inst, front, ext, p1, p2) =
  let name, _, dist, integral, scratch = List.nth instances inst in
  let sc = prepare scratch ~front ~ext in
  let fa = Engine.Scoring.front_after sc p1 p2 in
  let ea = Engine.Scoring.ext_after sc p1 p2 in
  let fa_ref = ref_sum dist p1 p2 front in
  let ea_ref = ref_sum dist p1 p2 ext in
  let ok got want =
    if integral then got = want (* exact small integers: bit-identical *)
    else Float.abs (got -. want) <= 1e-12
  in
  if ok fa fa_ref && ok ea ea_ref then true
  else
    QCheck.Test.fail_reportf "%s: front %.17g vs ref %.17g, ext %.17g vs ref %.17g" name
      fa fa_ref ea ea_ref

(* the full heuristic H assembled from scorer outputs, as route_once does,
   against the same formula over the reference sums *)
let prop_h_equals_reference (inst, front, ext, p1, p2) =
  let _, _, dist, integral, scratch = List.nth instances inst in
  let params = Engine.default_params in
  let sc = prepare scratch ~front ~ext in
  let h_of fa ea =
    let nf = float_of_int (max 1 (List.length front)) in
    let ne = float_of_int (max 1 (List.length ext)) in
    let h_basic = 3.0 *. fa /. nf in
    let h_ext = if ext = [] then 0.0 else params.Engine.ext_weight /. ne *. ea in
    h_basic +. h_ext
  in
  let h = h_of (Engine.Scoring.front_after sc p1 p2) (Engine.Scoring.ext_after sc p1 p2) in
  let h_ref = h_of (ref_sum dist p1 p2 front) (ref_sum dist p1 p2 ext) in
  if integral then h = h_ref else Float.abs (h -. h_ref) <= 1e-12

(* the scorer before its pairs moved into flat arrays: per-qubit cons
   lists, newest pair first.  The flat scorer must reproduce it bit for
   bit under both metrics, since the non-integral one rounds differently
   in any other summation order *)
let cons_list_after dist ~front ~ext which p1 p2 =
  let pairs = match which with `Front -> front | `Ext -> ext in
  let d a b = Topology.Distmat.get dist a b in
  let sum = List.fold_left (fun acc (a, b) -> acc +. d a b) 0.0 in
  let base_f = sum front and base_e = sum ext in
  if Float.is_finite base_f && Float.is_finite base_e then begin
    let touching q = List.rev (List.filter (fun (a, b) -> a = q || b = q) pairs) in
    let m q = if q = p1 then p2 else if q = p2 then p1 else q in
    let add skip acc (a, b) =
      if a <> skip && b <> skip then acc +. (d (m a) (m b) -. d a b) else acc
    in
    let delta =
      List.fold_left (add p1) (List.fold_left (add (-1)) 0.0 (touching p1)) (touching p2)
    in
    (match which with `Front -> base_f | `Ext -> base_e) +. delta
  end
  else ref_sum dist p1 p2 pairs

let bits = Int64.bits_of_float

let prop_flat_equals_cons_lists (inst, front, ext, p1, p2) =
  let name, _, dist, _, scratch = List.nth instances inst in
  let sc = prepare scratch ~front ~ext in
  let fa = Engine.Scoring.front_after sc p1 p2 in
  let ea = Engine.Scoring.ext_after sc p1 p2 in
  let fa_ref = cons_list_after dist ~front ~ext `Front p1 p2 in
  let ea_ref = cons_list_after dist ~front ~ext `Ext p1 p2 in
  if bits fa = bits fa_ref && bits ea = bits ea_ref then true
  else
    QCheck.Test.fail_reportf "%s: front %h vs %h, ext %h vs %h" name fa fa_ref ea ea_ref

(* A chain of SWAPs applied to a loaded scorer with [Scoring.swap], against
   a second scorer loaded afresh with the pairs renamed by the same SWAPs.
   After each SWAP both sums, the candidate's two scores and the pair
   evaluations they counted must agree bit for bit *)
let gen_relabel =
  QCheck.Gen.(
    let* case = gen_case in
    let inst, _, _, _, _ = case in
    let _, n_phys, _, _, _ = List.nth instances inst in
    let swap =
      let* p = int_range 0 (n_phys - 1) in
      let* q = int_range 0 (n_phys - 2) in
      return (p, if q >= p then q + 1 else q)
    in
    let* swaps = list_size (int_range 1 4) swap in
    return (case, swaps))

let prop_swap_equals_fresh ((inst, front, ext, p1, p2), swaps) =
  let name, _, dist, _, scratch = List.nth instances inst in
  let sc = prepare scratch ~front ~ext in
  let fresh = Engine.Scoring.create ~dist ~capacity:4 in
  let exchange (x, y) q = if q = x then y else if q = y then x else q in
  let rename s (a, b) = (exchange s a, exchange s b) in
  let state sc =
    Engine.Scoring.prepare sc;
    let fa = Engine.Scoring.front_after sc p1 p2 in
    let ea = Engine.Scoring.ext_after sc p1 p2 in
    ( bits (Engine.Scoring.base_front sc),
      bits (Engine.Scoring.base_ext sc),
      bits fa,
      bits ea,
      Engine.Scoring.pair_evals sc )
  in
  let rec go front ext = function
    | [] -> true
    | ((x, y) as s) :: rest ->
        Engine.Scoring.swap sc x y;
        let front = List.map (rename s) front and ext = List.map (rename s) ext in
        let got = state sc and want = state (prepare fresh ~front ~ext) in
        if got = want then go front ext rest
        else
          let bf, be, fa, ea, ev = got and bf', be', fa', ea', ev' = want in
          QCheck.Test.fail_reportf
            "%s: after swap (%d, %d): bases %Lx %Lx vs %Lx %Lx, after %Lx %Lx vs %Lx %Lx, \
             evals %d vs %d"
            name x y bf be bf' be' fa ea fa' ea' ev ev'
  in
  go front ext swaps

(* QCHECK_LONG=1 multiplies each count by its long_factor *)
let qcheck_props =
  [
    QCheck.Test.make ~name:"delta scorer = full rescan (4 topologies x 3 matrices)"
      ~count:500 ~long_factor:20 (QCheck.make gen_case) prop_delta_equals_full;
    QCheck.Test.make ~name:"assembled H = reference H" ~count:500 ~long_factor:20
      (QCheck.make gen_case) prop_h_equals_reference;
    QCheck.Test.make ~name:"flat scorer = cons-list scorer, bit for bit" ~count:500
      ~long_factor:20 (QCheck.make gen_case) prop_flat_equals_cons_lists;
    QCheck.Test.make ~name:"swapped scorer = fresh scorer, bit for bit" ~count:500
      ~long_factor:20 (QCheck.make gen_relabel) prop_swap_equals_fresh;
  ]

(* ---- NASSC bonus window semantics over the op stream ---- *)

let push stream gate qubits =
  Engine.stream_push stream { Engine.gate; op_qubits = qubits; tag = Engine.Not_swap }

let c2q_only = { Nassc.default_config with enable_commute1 = false; enable_commute2 = false }

(* a trailing CX on the pair, pushed out of reach by filler ops elsewhere:
   the C_2q block scan must honor config.scan_limit (it was once hard-coded
   to 24), counting *all* emitted ops against the window, not just ops on
   the scanned wires *)
let test_scan_limit_shrinks_window () =
  let stream = Engine.stream_create ~n_phys:4 () in
  push stream Gate.CX [ 0; 1 ];
  for _ = 1 to 6 do
    push stream Gate.H [ 2 ]
  done;
  let mapping = Engine.mapping_of_layout ~n_phys:4 [| 0; 1; 2; 3 |] in
  let bonus_with limit =
    fst ((Nassc.bonus { c2q_only with scan_limit = limit }) ~stream ~mapping 0 1)
  in
  Alcotest.(check (float 1e-9)) "wide window sees the trailing CX" 2.0 (bonus_with 24);
  Alcotest.(check (float 1e-9)) "window of 7 still reaches it" 2.0 (bonus_with 7);
  Alcotest.(check (float 1e-9)) "tiny window excludes it" 0.0 (bonus_with 2)

let counter_of trace name =
  match List.assoc_opt name (Qobs.Trace.counters_total trace) with
  | Some v -> v
  | None -> 0

(* identical trailing blocks must hit the memoized Weyl-cost cache *)
let test_weyl_cache_counters () =
  let root = Qobs.Collector.create ~label:"scoring-test" () in
  Qobs.with_collector root (fun () ->
      Nassc.reset_weyl_cache ();
      let stream = Engine.stream_create ~n_phys:4 () in
      push stream Gate.CX [ 0; 1 ];
      let mapping = Engine.mapping_of_layout ~n_phys:4 [| 0; 1; 2; 3 |] in
      let b1 = fst ((Nassc.bonus c2q_only) ~stream ~mapping 0 1) in
      let b2 = fst ((Nassc.bonus c2q_only) ~stream ~mapping 0 1) in
      Alcotest.(check (float 1e-9)) "cached result identical" b1 b2);
  let trace = Qobs.Trace.of_root root in
  Alcotest.(check int) "one miss (first eval)" 1 (counter_of trace "nassc.weyl_cache_misses");
  Alcotest.(check int) "one hit (second eval)" 1 (counter_of trace "nassc.weyl_cache_hits")

(* the engine's delta scorer skips most pair evaluations; the saved work is
   surfaced as engine.score_cache_hits on any traced route *)
let test_score_cache_counter_surfaces () =
  let root = Qobs.Collector.create ~label:"scoring-test" () in
  let circuit = Qbench.Generators.qft 5 in
  let coupling = Topology.Devices.linear 7 in
  ignore
    (Qobs.with_collector root (fun () ->
         Qroute.Pipeline.transpile ~router:Qroute.Pipeline.Sabre_router coupling circuit));
  let trace = Qobs.Trace.of_root root in
  Alcotest.(check bool)
    "score_cache_hits positive" true
    (counter_of trace "engine.score_cache_hits" > 0)

(* The engine's work counters and the layouts, pinned at the values the
   route gave before its SWAP step was rewritten as a kernel: a kernel that
   drops an evaluation from the count, scores a candidate twice or moves a
   tie changes one of them.  Seed 3, two trials on one worker, the whole
   transpile under one collector. *)
let pinned_counters =
  [
    "engine.swap_candidates_scored";
    "engine.score_cache_hits";
    "engine.h_basic_evals";
    "engine.h_lookahead_evals";
    "engine.swaps_emitted";
  ]

let pinned =
  let qft30_init =
    [| 96; 95; 98; 97; 79; 91; 77; 78; 58; 71; 59; 53; 61; 41; 60; 42; 43; 44; 62; 63; 72;
       64; 81; 80; 46; 45; 54; 65; 47; 35 |]
  and sym9_init = [| 10; 22; 8; 13; 16; 19; 5; 12; 14; 9; 11 |] in
  [
    ( "QFT 30 on eagle",
      `Eagle,
      "sabre",
      [ 160532; 3004843; 160532; 160532; 9486 ],
      qft30_init,
      [| 35; 47; 46; 65; 80; 42; 43; 44; 81; 72; 45; 54; 64; 63; 41; 53; 62; 61; 60; 58; 59;
         71; 78; 77; 95; 96; 97; 79; 98; 91 |] );
    ( "QFT 30 on eagle",
      `Eagle,
      "nassc",
      [ 158306; 2953135; 158306; 158306; 9445 ],
      qft30_init,
      [| 35; 65; 47; 46; 81; 54; 64; 72; 80; 41; 42; 45; 44; 43; 63; 62; 61; 53; 60; 59; 58;
         71; 77; 78; 79; 98; 91; 97; 95; 96 |] );
    ( "sym9_193/4 on montreal",
      `Montreal,
      "sabre",
      [ 271795; 3252053; 271795; 271795; 41570 ],
      sym9_init,
      [| 9; 12; 19; 16; 5; 11; 14; 22; 8; 13; 10 |] );
    ( "sym9_193/4 on montreal",
      `Montreal,
      "nassc",
      [ 275152; 3303043; 275152; 275152; 41906 ],
      sym9_init,
      [| 11; 12; 16; 13; 9; 5; 14; 22; 8; 19; 10 |] );
  ]

let test_pinned_work () =
  List.iter
    (fun (name, device, rname, counts, init, final) ->
      let coupling, circuit =
        match device with
        | `Eagle -> (Topology.Devices.eagle (), Qbench.Generators.qft 30)
        | `Montreal ->
            (* the sym9_193 stand-in at a quarter of its CNOT total, as in
               the benchmark's montreal-revlib workload *)
            ( Topology.Devices.montreal,
              Qbench.Revlib_like.mct_netlist ~seed:193 ~n:11 ~target_cx:(15232 / 4) )
      in
      let router = List.assoc rname Qroute.Pipeline.routers in
      let root = Qobs.Collector.create ~label:"pinned" () in
      let r =
        Qobs.with_collector root (fun () ->
            Qroute.Pipeline.transpile
              ~params:{ Engine.default_params with seed = 3 }
              ~trials:2 ~workers:1 ~router coupling circuit)
      in
      let trace = Qobs.Trace.of_root root in
      let label = name ^ "/" ^ rname in
      Alcotest.(check (list (pair string int)))
        (label ^ " counters")
        (List.combine pinned_counters counts)
        (List.map (fun c -> (c, counter_of trace c)) pinned_counters);
      Alcotest.(check (option (array int))) (label ^ " initial layout") (Some init)
        r.initial_layout;
      Alcotest.(check (option (array int))) (label ^ " final layout") (Some final)
        r.final_layout)
    pinned

let () =
  Alcotest.run "scoring"
    [
      ("equivalence", List.map QCheck_alcotest.to_alcotest qcheck_props);
      ( "windows",
        [
          Alcotest.test_case "scan_limit honors config" `Quick
            test_scan_limit_shrinks_window;
          Alcotest.test_case "weyl cache hit/miss counters" `Quick
            test_weyl_cache_counters;
          Alcotest.test_case "score cache counter surfaces" `Quick
            test_score_cache_counter_surfaces;
        ] );
      ( "work",
        [
          Alcotest.test_case "engine counters and layouts pinned" `Quick test_pinned_work;
        ] );
    ]
