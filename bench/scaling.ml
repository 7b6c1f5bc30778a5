(* Scaling experiment v2: streaming throughput and memory on mega-scale
   devices.  Each run pulls a 10^4..10^6-gate lazy stream (deep QFT, QV
   brickwork, random-density) through Pipeline.transpile_stream on
   montreal/eagle/osprey, measuring gates/sec and per-run peak RSS with
   Qtel.Sampler.  The memory gate — peak RSS at 10^5 gates must stay
   within 5x the 10^4-gate run of the same (device, family, router) —
   is what makes the O(window) claim a CI invariant rather than a code
   comment.  Rows land in a schema-versioned BENCH_<sha>-scaling.json
   snapshot (kind nassc-bench-scaling). *)

module J = Qbench.Jsonlite
module S = Qbench.Snapshot

let schema_version = 1
let kind = "nassc-bench-scaling"
let window = 4096
let rss_gate_factor = 5.0

type spec = { device : string; family : string; router : string; gates : int }

type row = {
  spec : spec;
  gates_in : int;
  gates_out : int;
  cx_total : int;
  depth : int;
  n_swaps : int;
  wall_s : float;
  gates_per_s : float;
  peak_rss_kb : int;
  peak_resident : int;
}

let size_label g =
  if g >= 1_000_000 then Printf.sprintf "%dM" (g / 1_000_000)
  else if g >= 1_000 then Printf.sprintf "%dk" (g / 1_000)
  else string_of_int g

let row_name s = Printf.sprintf "%s/%s" s.family (size_label s.gates)

let coupling_of = function
  | "montreal" -> Topology.Devices.montreal
  | "eagle" -> Topology.Devices.eagle ()
  | "osprey" -> Topology.Devices.osprey ()
  | d -> invalid_arg ("scaling: unknown device " ^ d)

(* gate-budget-matched lazy sources; each family sizes its repetition
   parameter so the pre-lowering instruction count is ~spec.gates *)
let source_of ~n spec =
  match spec.family with
  | "deep-qft" ->
      let per_rep = n + (n * (n - 1) / 2) in
      Qbench.Generators.qft_stream ~reps:(max 1 ((spec.gates + per_rep - 1) / per_rep)) n
  | "qv" ->
      let per_layer = 8 * (n / 2) in
      Qbench.Generators.qv_stream ~seed:11
        ~depth:(max 1 ((spec.gates + per_layer - 1) / per_layer))
        n
  | "random-density" ->
      Qbench.Generators.random_density_stream ~seed:11 ~gates:spec.gates ~density:0.5 n
  | f -> invalid_arg ("scaling: unknown family " ^ f)

(* The run matrix.  Sizes ascend within each (device, family, router) so
   the RSS gate compares a later, larger run against an earlier, smaller
   one — the pessimistic ordering for the gate, since RSS only ever
   ratchets up within a process.  The quick subset (<= 10^5 gates, the CI
   budget) keeps every device but trims eagle/osprey to the families that
   exercise them differently; --full runs the whole matrix plus two
   million-gate rows. *)
let specs ~quick =
  let s device family router gates = { device; family; router; gates } in
  let pair device family router = [ s device family router 10_000; s device family router 100_000 ] in
  let base =
    pair "montreal" "deep-qft" "sabre"
    @ pair "montreal" "qv" "sabre"
    @ pair "montreal" "random-density" "sabre"
    @ pair "eagle" "deep-qft" "sabre"
    @ pair "eagle" "random-density" "sabre"
    @ pair "osprey" "random-density" "sabre"
    @ [ s "montreal" "random-density" "nassc" 10_000 ]
  in
  if quick then base
  else
    base
    @ pair "eagle" "qv" "sabre"
    @ pair "osprey" "deep-qft" "sabre"
    @ pair "osprey" "qv" "sabre"
    @ [
        s "eagle" "random-density" "nassc" 10_000;
        s "eagle" "deep-qft" "sabre" 1_000_000;
        s "osprey" "random-density" "sabre" 1_000_000;
      ]

(* per-run peak RSS: max of the *sampled* VmRSS values, not VmHWM (the
   process-lifetime high-water mark, which would make every run inherit
   its predecessors' peak).  Falls back to the sampled OCaml heap size
   where procfs is unavailable. *)
let peak_sampled_rss_kb samples =
  let word_kb w = w * (Sys.word_size / 8) / 1024 in
  List.fold_left
    (fun acc (s : Qtel.Sampler.sample) ->
      max acc (if s.rss_kb > 0 then s.rss_kb else word_kb s.heap_words))
    0 samples

let run_one ~seed spec =
  let coupling = coupling_of spec.device in
  let n = Topology.Coupling.n_qubits coupling in
  let source = source_of ~n spec in
  let params = { Qroute.Engine.default_params with seed } in
  let router =
    match Qroute.Pipeline.router_of_name spec.router with
    | Ok r -> r
    | Error e -> invalid_arg ("scaling: " ^ e)
  in
  Printf.printf "  %-10s %-20s %-6s %6s ...%!" spec.device (row_name spec) spec.router
    (size_label spec.gates);
  (* start each run from a settled heap so its sampled RSS reflects the
     run, not the previous run's garbage *)
  Gc.compact ();
  let sampler = Qtel.Sampler.start ~interval_ms:5.0 ~capacity:65_536 () in
  let t0 = Unix.gettimeofday () in
  let r = Qroute.Pipeline.transpile_stream ~params ~window ~router ~sink:ignore coupling source in
  let wall_s = Unix.gettimeofday () -. t0 in
  Qtel.Sampler.stop sampler;
  let peak_rss_kb = peak_sampled_rss_kb (Qtel.Sampler.samples sampler) in
  let open Qroute.Pipeline in
  let gates_per_s = float_of_int r.sr_gates_in /. Float.max wall_s 1e-9 in
  Printf.printf " %7d gates %8.0f g/s rss %6d kB resident<=%d (%.1fs)\n%!" r.sr_gates_in
    gates_per_s peak_rss_kb r.sr_peak_resident wall_s;
  {
    spec;
    gates_in = r.sr_gates_in;
    gates_out = r.sr_gates_out;
    cx_total = r.sr_cx_out;
    depth = r.sr_depth_out;
    n_swaps = r.sr_n_swaps;
    wall_s;
    gates_per_s;
    peak_rss_kb;
    peak_resident = r.sr_peak_resident;
  }

(* ---- the memory gate ---- *)

let check_rss_gate rows =
  let find device family router gates =
    List.find_opt
      (fun r ->
        r.spec.device = device && r.spec.family = family && r.spec.router = router
        && r.spec.gates = gates)
      rows
  in
  let violations = ref 0 in
  List.iter
    (fun r ->
      if r.spec.gates = 100_000 then
        match find r.spec.device r.spec.family r.spec.router 10_000 with
        | None -> ()
        | Some small ->
            let ratio = float_of_int r.peak_rss_kb /. float_of_int small.peak_rss_kb in
            (* a run that measured no memory fails the gate, never skips it *)
            let ok = small.peak_rss_kb > 0 && r.peak_rss_kb > 0 && ratio <= rss_gate_factor in
            Printf.printf "  rss gate %-10s %-16s %-6s 10k=%d kB 100k=%d kB (%.2fx <= %.0fx) %s\n"
              r.spec.device r.spec.family r.spec.router small.peak_rss_kb r.peak_rss_kb
              ratio rss_gate_factor
              (if ok then "ok" else "VIOLATION");
            if not ok then incr violations)
    rows;
  !violations

(* ---- snapshot ---- *)

let row_json r =
  J.Obj
    [
      ("name", J.Str (row_name r.spec));
      ("topology", J.Str r.spec.device);
      ("router", J.Str r.spec.router);
      ("gates_requested", J.int r.spec.gates);
      ("gates_in", J.int r.gates_in);
      ("gates_out", J.int r.gates_out);
      ("cx_total", J.int r.cx_total);
      ("depth", J.int r.depth);
      ("n_swaps", J.int r.n_swaps);
      ("wall_s", J.Num r.wall_s);
      ("gates_per_s", J.Num r.gates_per_s);
      ("peak_rss_kb", J.int r.peak_rss_kb);
      ("peak_resident", J.int r.peak_resident);
    ]

let snapshot ~suite ~seed rows =
  S.document ~schema_version ~kind
    [
      ("suite", J.Str suite);
      ("seed", J.int seed);
      ("window", J.int window);
      ("circuits", J.List (List.map row_json rows));
    ]

let run ?(quick = false) ?out ~seed () =
  let suite = if quick then "quick" else "full" in
  Printf.printf
    "=== bench --only scaling (%s suite, window %d, seed %d): streaming gates/sec and \
     peak RSS ===\n\
     %!"
    suite window seed;
  let rows = List.map (run_one ~seed) (specs ~quick) in
  let violations = check_rss_gate rows in
  Printf.printf "snapshot: %s\n" (S.write ?out ~suffix:"-scaling" (snapshot ~suite ~seed rows));
  if violations > 0 then begin
    Printf.printf "scaling: FAILED (%d peak-RSS ratio(s) over %.0fx)\n" violations
      rss_gate_factor;
    1
  end
  else begin
    Printf.printf "scaling: OK (%d rows; 100k-gate peak RSS within %.0fx of 10k)\n"
      (List.length rows) rss_gate_factor;
    0
  end
