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

(* hop and noise-aware metrics per topology, sharing one scorer whose
   initial capacity (4 pairs) is below the generated pair counts, so the
   properties also run its growth path and its reset between samples *)
let instances =
  List.concat_map
    (fun (tname, coupling) ->
      let n_phys = Topology.Coupling.n_qubits coupling in
      let scratch = Engine.Scoring.create ~n_phys ~capacity:4 in
      [
        (tname ^ "/hop", n_phys, Topology.Distmat.hops coupling, true, scratch);
        ( tname ^ "/noise",
          n_phys,
          Topology.Calibration.noise_distmat (Topology.Calibration.generate coupling),
          false,
          scratch );
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

let prepare scratch ~dist ~front ~ext =
  Engine.Scoring.clear scratch;
  List.iter (fun (a, b) -> Engine.Scoring.add_front scratch a b) front;
  List.iter (fun (a, b) -> Engine.Scoring.add_ext scratch a b) ext;
  Engine.Scoring.prepare scratch ~dist;
  scratch

let prop_delta_equals_full (inst, front, ext, p1, p2) =
  let name, _, dist, integral, scratch = List.nth instances inst in
  let sc = prepare scratch ~dist ~front ~ext in
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
  let sc = prepare scratch ~dist ~front ~ext in
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
  let sc = prepare scratch ~dist ~front ~ext in
  let fa = Engine.Scoring.front_after sc p1 p2 in
  let ea = Engine.Scoring.ext_after sc p1 p2 in
  let fa_ref = cons_list_after dist ~front ~ext `Front p1 p2 in
  let ea_ref = cons_list_after dist ~front ~ext `Ext p1 p2 in
  if bits fa = bits fa_ref && bits ea = bits ea_ref then true
  else
    QCheck.Test.fail_reportf "%s: front %h vs %h, ext %h vs %h" name fa fa_ref ea ea_ref

(* QCHECK_LONG=1 multiplies each count by its long_factor *)
let qcheck_props =
  [
    QCheck.Test.make ~name:"delta scorer = full rescan (4 topologies x 2 metrics)"
      ~count:500 ~long_factor:20 (QCheck.make gen_case) prop_delta_equals_full;
    QCheck.Test.make ~name:"assembled H = reference H" ~count:500 ~long_factor:20
      (QCheck.make gen_case) prop_h_equals_reference;
    QCheck.Test.make ~name:"flat scorer = cons-list scorer, bit for bit" ~count:500
      ~long_factor:20 (QCheck.make gen_case) prop_flat_equals_cons_lists;
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
    ]
