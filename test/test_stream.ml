(* Streaming engine tests: the O(window) flow must be byte-identical to the
   batch routers whenever the window covers the whole circuit (the PR's
   degenerate-window invariant), stay valid at genuinely small windows, and
   certify symbolically on a 127-qubit heavy-hex device.  The QCheck
   property runs golden-corpus-shaped circuits over the corpus topologies,
   several window sizes and batch worker counts 1 vs 4. *)

open Qcircuit
open Qgate
module Rng = Mathkit.Rng

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let params = { Qroute.Engine.default_params with seed = 11 }

(* same shape as the golden corpus generator: 3-5 logical qubits, mixed
   1q/2q traffic, deterministic per seed *)
let random_circuit seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 3 in
  let b = Circuit.Builder.create n in
  let len = 6 + Rng.int rng 20 in
  for _ = 1 to len do
    match Rng.int rng 6 with
    | 0 -> Circuit.Builder.add b Gate.H [ Rng.int rng n ]
    | 1 -> Circuit.Builder.add b (Gate.RZ (Rng.float rng 6.28)) [ Rng.int rng n ]
    | 2 -> Circuit.Builder.add b Gate.SX [ Rng.int rng n ]
    | 3 -> Circuit.Builder.add b Gate.T [ Rng.int rng n ]
    | _ ->
        let a = Rng.int rng n in
        let c = (a + 1 + Rng.int rng (n - 1)) mod n in
        Circuit.Builder.add b Gate.CX [ a; c ]
  done;
  Circuit.Builder.circuit b

let topologies =
  [
    ("linear7", Topology.Devices.linear 7);
    ("ring7", Topology.Devices.ring 7);
    ("grid2x4", Topology.Devices.grid 2 4);
    ("heavyhex2x2", Topology.Devices.heavy_hex 2 2);
  ]

let stream_route ?calibration ?(window = 4096) ?(chunk = 97) ~router coupling circuit =
  let buf = ref [] in
  let r =
    Qroute.Pipeline.transpile_stream ~params ?calibration ~window ~chunk ~router
      ~sink:(fun c -> buf := List.rev_append (Circuit.instrs c) !buf)
      coupling
      (Source.of_circuit circuit)
  in
  (Circuit.create (Topology.Coupling.n_qubits coupling) (List.rev !buf), r)

(* the batch route of the lowered circuit, without the optimization
   bundles the stream skips *)
let batch_reference ?calibration ~router coupling circuit =
  let r =
    Qroute.Pipeline.(route ?calibration ~router coupling (lower_to_2q circuit) params)
  in
  (r.circuit, r.initial_layout, r.final_layout, r.n_swaps)

let stream_routers = Qroute.Pipeline.select_routers [ "sabre"; "nassc" ]

(* ---- QCheck: degenerate windows are byte-identical to batch routing,
   and a pooled transpile is the same at 1 and 4 workers ---- *)

let gen_case =
  QCheck.Gen.(
    map
      (fun (cs, (ti, (ri, wi))) -> (cs, ti, ri, wi))
      (pair (int_range 0 400) (pair (int_range 0 3) (pair (int_range 0 1) (int_range 0 2)))))

let prop_degenerate_window_is_batch (cs, ti, ri, wi) =
  let circuit = random_circuit cs in
  let tname, coupling = List.nth topologies ti in
  let rname, router = List.nth stream_routers ri in
  let size = Circuit.size (Qroute.Pipeline.lower_to_2q circuit) in
  let window = List.nth [ size; size + 13; 4096 ] wi in
  let streamed, sr = stream_route ~window ~router coupling circuit in
  let batch, il, fl, n_swaps = batch_reference ~router coupling circuit in
  (* a pooled transpile must not depend on the trial pool's worker count *)
  let pooled workers =
    Qroute.Pipeline.transpile ~params ~trials:2 ~workers ~router coupling circuit
  in
  let p1 = pooled 1 and p4 = pooled 4 in
  if
    (not (Circuit.bit_equal p1.circuit p4.circuit))
    || p1.initial_layout <> p4.initial_layout
    || p1.final_layout <> p4.final_layout
    || p1.n_swaps <> p4.n_swaps
  then QCheck.Test.fail_reportf "%s/%s: transpile differs at workers 1 and 4" tname rname;
  if not (Circuit.bit_equal streamed batch) then
    QCheck.Test.fail_reportf "%s/%s window=%d: streamed <> batch (%d vs %d instrs)" tname
      rname window
      (List.length (Circuit.instrs streamed))
      (List.length (Circuit.instrs batch));
  sr.Qroute.Pipeline.sr_initial_layout = il
  && sr.Qroute.Pipeline.sr_final_layout = fl
  && sr.Qroute.Pipeline.sr_n_swaps = n_swaps

(* ---- small windows: different routings are allowed, broken ones are not ---- *)

let prop_small_window_valid (cs, ti, ri, small) =
  let circuit = random_circuit cs in
  let _, coupling = List.nth topologies ti in
  let _, router = List.nth stream_routers ri in
  let window = List.nth [ 4; 16 ] small in
  let streamed, sr = stream_route ~window ~router coupling circuit in
  Qroute.Sabre.check_routed coupling streamed
  && sr.Qroute.Pipeline.sr_peak_resident <= window
  && sr.Qroute.Pipeline.sr_gates_in = Circuit.size (Qroute.Pipeline.lower_to_2q circuit)

let gen_small =
  QCheck.Gen.(
    map
      (fun (cs, (ti, (ri, small))) -> (cs, ti, ri, small))
      (pair (int_range 0 400) (pair (int_range 0 3) (pair (int_range 0 1) (int_range 0 1)))))

let qcheck_props =
  [
    QCheck.Test.make ~name:"window >= circuit: streamed = batch (workers 1 vs 4)"
      ~count:60 (QCheck.make gen_case) prop_degenerate_window_is_batch;
    QCheck.Test.make ~name:"small windows stay valid routings" ~count:60
      (QCheck.make gen_small) prop_small_window_valid;
  ]

(* ---- noise-aware variants stream too ---- *)

let test_ha_variants () =
  let circuit = random_circuit 29 in
  let coupling = Topology.Devices.grid 2 4 in
  let cal = Topology.Calibration.generate coupling in
  List.iter
    (fun (name, router) ->
      let streamed, sr = stream_route ~calibration:cal ~window:8192 ~router coupling circuit in
      let batch, il, fl, _ = batch_reference ~calibration:cal ~router coupling circuit in
      check (name ^ ": streamed = batch") true (Circuit.bit_equal streamed batch);
      check (name ^ ": layouts") true
        (sr.Qroute.Pipeline.sr_initial_layout = il && sr.Qroute.Pipeline.sr_final_layout = fl))
    (List.filter (fun (_, r) -> Qroute.Pipeline.noise_aware r) Qroute.Pipeline.routers)

(* ---- every registered router: streamable ones match their batch
   reference at an unbounded window, the rest are rejected up front ---- *)

let test_streamable_guard () =
  let circuit = random_circuit 3 in
  let coupling = Topology.Devices.linear 5 in
  let cal = Topology.Calibration.generate coupling in
  List.iter
    (fun (name, router) ->
      if Qroute.Pipeline.streamable router then begin
        let streamed, sr =
          stream_route ~calibration:cal ~window:max_int ~router coupling circuit
        in
        let batch, il, fl, _ = batch_reference ~calibration:cal ~router coupling circuit in
        check (name ^ ": streamed = batch") true (Circuit.bit_equal streamed batch);
        check (name ^ ": layouts") true
          (sr.Qroute.Pipeline.sr_initial_layout = il
          && sr.Qroute.Pipeline.sr_final_layout = fl)
      end
      else
        Alcotest.check_raises
          (name ^ " raises Invalid_argument")
          (Invalid_argument
             "Pipeline.transpile_stream: router needs the whole circuit (streaming supports \
              sabre/nassc/sabre-ha/nassc-ha)") (fun () ->
            ignore
              (Qroute.Pipeline.transpile_stream ~router ~sink:ignore coupling
                 (Source.of_circuit circuit))))
    Qroute.Pipeline.routers

(* ---- chunked emission reassembles to the unchunked output ---- *)

let test_chunking () =
  let circuit = random_circuit 17 in
  let coupling = Topology.Devices.grid 2 4 in
  let big, rb = stream_route ~chunk:100_000 ~router:Qroute.Pipeline.Sabre_router coupling circuit in
  let small, rs = stream_route ~chunk:5 ~router:Qroute.Pipeline.Sabre_router coupling circuit in
  check "chunk=5 concatenation = one chunk" true (Circuit.bit_equal big small);
  checki "one chunk when chunk is huge" 1 rb.Qroute.Pipeline.sr_chunks;
  check "many chunks when chunk=5" true (rs.Qroute.Pipeline.sr_chunks > 1);
  checki "same depth accounting" rb.Qroute.Pipeline.sr_depth_out rs.Qroute.Pipeline.sr_depth_out

(* ---- 127-qubit heavy-hex spot check: stream with a genuinely small
   window, then certify the routed output symbolically ---- *)

let test_verify_eagle_stream () =
  let circuit = Qbench.Generators.qft 16 in
  let coupling = Topology.Devices.eagle () in
  checki "eagle is 127 qubits" 127 (Topology.Coupling.n_qubits coupling);
  let streamed, sr =
    stream_route ~window:64 ~router:(Qroute.Pipeline.Nassc_router Qroute.Nassc.default_config)
      coupling circuit
  in
  check "window honoured" true (sr.Qroute.Pipeline.sr_peak_resident <= 64);
  check "valid on the device" true (Qroute.Sabre.check_routed coupling streamed);
  match
    Qverify.verify_routed ~original:circuit ~routed:streamed
      ~initial_layout:sr.Qroute.Pipeline.sr_initial_layout
      ~final_layout:sr.Qroute.Pipeline.sr_final_layout ()
  with
  | Qverify.Equivalent _ -> ()
  | v -> Alcotest.failf "127q streamed circuit did not certify: %s" (Qverify.to_json v)

(* ---- lazy stream generators ---- *)

let test_generators () =
  let qft1 = Source.to_circuit (Qbench.Generators.qft_stream ~reps:1 8) in
  check "qft_stream reps=1 = batch qft" true
    (Circuit.instrs qft1 = Circuit.instrs (Qbench.Generators.qft 8));
  let qft3 = Source.to_circuit (Qbench.Generators.qft_stream ~reps:3 8) in
  checki "qft_stream reps=3 size" (3 * Circuit.size qft1) (Circuit.size qft3);
  let qv () = Source.to_circuit (Qbench.Generators.qv_stream ~seed:7 ~depth:9 10) in
  checki "qv_stream budget" (9 * 8 * 5) (Circuit.size (qv ()));
  check "qv_stream deterministic" true (Circuit.instrs (qv ()) = Circuit.instrs (qv ()));
  let rd () =
    Source.to_circuit
      (Qbench.Generators.random_density_stream ~seed:5 ~gates:500 ~density:0.4 12)
  in
  checki "random_density_stream exact budget" 500 (Circuit.size (rd ()));
  check "random_density_stream deterministic" true
    (Circuit.instrs (rd ()) = Circuit.instrs (rd ()));
  (* the stream never materializes: pulling 10^5 gates touches no list *)
  let s = Qbench.Generators.random_density_stream ~seed:5 ~gates:100_000 ~density:0.4 12 in
  let n = ref 0 in
  let rec drain () =
    match Source.pull s with
    | Some _ ->
        incr n;
        drain ()
    | None -> ()
  in
  drain ();
  checki "10^5-gate pull count" 100_000 !n

(* ---- Nassc.Streaming: incremental finalize = batch finalize ---- *)

let test_streaming_finalize () =
  let mk gate qs tag = { Qroute.Engine.gate; op_qubits = qs; tag } in
  let ops =
    [
      mk Gate.H [ 0 ] Qroute.Engine.Not_swap;
      mk Gate.SWAP [ 0; 1 ] Qroute.Engine.Swap_plain;
      mk (Gate.RZ 0.5) [ 1 ] Qroute.Engine.Not_swap;
      mk Gate.SX [ 0 ] Qroute.Engine.Not_swap;
      mk Gate.SWAP [ 0; 1 ] (Qroute.Engine.Swap_orient (1, 0));
      mk Gate.CX [ 1; 2 ] Qroute.Engine.Not_swap;
    ]
  in
  let copy () =
    List.map (fun (o : Qroute.Engine.out_op) -> { o with Qroute.Engine.gate = o.gate }) ops
  in
  let batch = Qroute.Nassc.finalize (copy ()) in
  let out = ref [] in
  let t = Qroute.Nassc.Streaming.create ~emit:(fun i -> out := i :: !out) in
  List.iter (Qroute.Nassc.Streaming.push t) (copy ());
  Qroute.Nassc.Streaming.flush t;
  checki "nothing left pending" 0 (Qroute.Nassc.Streaming.pending t);
  check "incremental = batch finalize" true (List.rev !out = batch)

(* ---- Nassc.Streaming against an independent reference ----

   [test_streaming_finalize] compares the incremental finalizer with
   [Nassc.finalize], which is the same code draining into a list.  This
   reference is the finalizer as first written, kept here: it settles
   after every push, walking the whole pending one-qubit run each time. *)

module Ref_finalizer = struct
  type t = { emit : Circuit.instr -> unit; mutable pend : Circuit.instr list }

  let cx a b = { Circuit.gate = Gate.CX; qubits = [ a; b ] }

  let settle t =
    let rec split kept = function
      | (i : Circuit.instr) :: rest when Gate.is_one_qubit i.gate -> split (i :: kept) rest
      | below -> (kept, below)
    in
    match split [] t.pend with
    | _, [] -> ()
    | kept_oldest_first, below ->
        List.iter t.emit (List.rev below);
        t.pend <- List.rev kept_oldest_first

  let push t (op : Qroute.Engine.out_op) =
    let emit i = t.pend <- i :: t.pend in
    (match (op.gate, op.op_qubits, op.tag) with
    | Gate.SWAP, [ a; b ], Qroute.Engine.Swap_plain ->
        List.iter emit [ cx a b; cx b a; cx a b ]
    | Gate.SWAP, [ a; b ], Qroute.Engine.Swap_orient (c, tg) ->
        let moved = ref [] in
        let rec pull () =
          match t.pend with
          | (i : Circuit.instr) :: rest
            when Gate.is_one_qubit i.gate && (i.qubits = [ a ] || i.qubits = [ b ]) ->
              t.pend <- rest;
              moved := i :: !moved;
              pull ()
          | _ -> ()
        in
        pull ();
        List.iter emit [ cx c tg; cx tg c; cx c tg ];
        List.iter
          (fun (i : Circuit.instr) ->
            let q = List.hd i.qubits in
            emit { i with qubits = [ (if q = a then b else a) ] })
          !moved
    | _, qs, _ -> emit { Circuit.gate = op.gate; qubits = qs });
    settle t

  let flush t =
    List.iter t.emit (List.rev t.pend);
    t.pend <- []
end

(* long one-qubit runs between CXs, plain swaps and oriented swaps of
   either orientation, on four wires *)
let gen_ops =
  QCheck.Gen.(
    let mk gate qs tag = { Qroute.Engine.gate; op_qubits = qs; tag } in
    let qubit = int_range 0 3 in
    let pair = map2 (fun a d -> (a, (a + 1 + d) mod 4)) qubit (int_range 0 2) in
    let one =
      map2
        (fun g q -> mk g [ q ] Qroute.Engine.Not_swap)
        (oneofl [ Gate.H; Gate.SX; Gate.T; Gate.RZ 0.5 ])
        qubit
    in
    let segment =
      frequency
        [
          (4, list_size (int_range 0 40) one);
          (1, map (fun (a, b) -> [ mk Gate.CX [ a; b ] Qroute.Engine.Not_swap ]) pair);
          (2, map (fun (a, b) -> [ mk Gate.SWAP [ a; b ] Qroute.Engine.Swap_plain ]) pair);
          ( 3,
            map2
              (fun (a, b) flip ->
                let c, t = if flip then (b, a) else (a, b) in
                [ mk Gate.SWAP [ a; b ] (Qroute.Engine.Swap_orient (c, t)) ])
              pair bool );
        ]
    in
    map List.concat (list_size (int_range 0 12) segment))

let show_ops ops =
  String.concat "; "
    (List.map
       (fun (o : Qroute.Engine.out_op) ->
         Printf.sprintf "%s%s[%s]" (Gate.name o.gate)
           (match o.tag with
           | Qroute.Engine.Not_swap -> ""
           | Swap_plain -> "/plain"
           | Swap_orient (c, t) -> Printf.sprintf "/orient(%d,%d)" c t)
           (String.concat "," (List.map string_of_int o.op_qubits)))
       ops)

(* same instructions, and each push releases as many of them as the
   reference's does *)
let prop_finalizer_matches_reference ops =
  let out = ref [] and ref_out = ref [] in
  let t = Qroute.Nassc.Streaming.create ~emit:(fun i -> out := i :: !out) in
  let r = { Ref_finalizer.emit = (fun i -> ref_out := i :: !ref_out); pend = [] } in
  List.iter
    (fun op ->
      Qroute.Nassc.Streaming.push t op;
      Ref_finalizer.push r op;
      if List.length !out <> List.length !ref_out then
        QCheck.Test.fail_reportf "after %s: %d emitted, reference %d" (show_ops [ op ])
          (List.length !out) (List.length !ref_out))
    ops;
  Qroute.Nassc.Streaming.flush t;
  Ref_finalizer.flush r;
  !out = !ref_out

let finalizer_prop =
  QCheck.Test.make ~name:"incremental finalize = settle-every-push reference" ~count:300
    (QCheck.make ~print:show_ops gen_ops)
    prop_finalizer_matches_reference

let () =
  Alcotest.run "stream"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest (qcheck_props @ [ finalizer_prop ]) );
      ( "streaming",
        [
          Alcotest.test_case "noise-aware variants" `Quick test_ha_variants;
          Alcotest.test_case "streamable guard" `Quick test_streamable_guard;
          Alcotest.test_case "chunked emission" `Quick test_chunking;
          Alcotest.test_case "127q verify spot-check" `Quick test_verify_eagle_stream;
          Alcotest.test_case "lazy generators" `Quick test_generators;
          Alcotest.test_case "incremental finalize" `Quick test_streaming_finalize;
        ] );
    ]
