(* The paper's evaluation (Section VI) as data: Tables I-IV, Figures 9 and
   11, the router comparison, the best-of-N trials sweep and the two
   design ablations.  An experiment names its devices, its entries and its
   router columns; every transpile goes through one memoized cell, every
   table through one printer, and the deterministic columns into one
   snapshot (checked in as bench/baselines/paper.json). *)

module J = Qbench.Jsonlite
module P = Qroute.Pipeline
module Suite = Qbench.Suite

(* ---- the memoized cell ---- *)

type cell = {
  cx : int;
  depth : int;
  time : float;
  routed : (Qcircuit.Circuit.t * int array) option;
      (* routed circuit and final layout, kept for the Figure 11 entries
         only: what the success-rate sampler needs *)
}

let circuits : (string, Qcircuit.Circuit.t) Hashtbl.t = Hashtbl.create 16

let cells : (string * string * P.router * Qroute.Engine.params, cell) Hashtbl.t =
  Hashtbl.create 1024

let circuit (e : Suite.entry) =
  match Hashtbl.find_opt circuits e.name with
  | Some c -> c
  | None ->
      let c = e.build () in
      Hashtbl.add circuits e.name c;
      c

(* Each distinct transpile runs once per process, whichever experiments
   share it; the unrouted baseline ignores the device. *)
let transpile (dname, coupling) (e : Suite.entry) router params =
  let key = ((if router = P.Full_connectivity then "" else dname), e.name, router, params) in
  match Hashtbl.find_opt cells key with
  | Some c -> c
  | None ->
      let r = P.transpile ~params ~router coupling (circuit e) in
      let routed =
        if e.noise_subset then Option.map (fun fl -> (r.circuit, fl)) r.final_layout else None
      in
      let c = { cx = r.cx_total; depth = r.depth; time = r.transpile_time; routed } in
      Hashtbl.add cells key c;
      c

(* ---- experiments ---- *)

type column = { label : string; router : P.router; params : Qroute.Engine.params }
type metric = Cx | Depth

type derive =
  | Added  (** each column's mean CNOTs minus the unrouted circuit's *)
  | Vs_sabre of metric
      (** columns SABRE then NASSC: totals, added, both Deltas and their
          geomean footer; the CNOT tables also show the mean wall times *)
  | Best_of
      (** SABRE, then NASSC configurations ending in the all-enabled one:
          the best Delta of added CNOTs against the all-enabled one's *)
  | Success_rates  (** sampled success rate and ESP of each column's seed-1 routing *)
  | Trials_sweep of int list
      (** the one column's best of N trials for each N, and the largest N's
          wall time on one worker and on the default pool *)

type experiment = {
  key : string;  (** the [--only] name *)
  title : string;
  devices : (string * Topology.Coupling.t) list;
  entries : Suite.entry list;
  columns : column list;
  derive : derive;
}

let col ?(params = Qroute.Engine.default_params) label router = { label; router; params }
let sabre = col "SABRE" P.Sabre_router
let nassc = col "NASSC" (P.Nassc_router Qroute.Nassc.default_config)

(* the 8 on/off combinations of NASSC's three optimizations, all-enabled
   ("2ab", the default config) last *)
let combos =
  let bools = [ false; true ] and flag on c = if on then c else "-" in
  List.concat_map
    (fun e2q ->
      List.concat_map
        (fun c1 ->
          List.map
            (fun c2 ->
              col
                (flag e2q "2" ^ flag c1 "a" ^ flag c2 "b")
                (P.Nassc_router
                   {
                     Qroute.Nassc.default_config with
                     enable_2q = e2q;
                     enable_commute1 = c1;
                     enable_commute2 = c2;
                   }))
            bools)
        bools)
    bools

let experiments ~full ~shots =
  let montreal = [ ("ibmq_montreal", Topology.Devices.montreal) ] in
  let linear = [ ("linear-25", Topology.Devices.linear 25) ] in
  let grid = [ ("grid-5x5", Topology.Devices.grid 5 5) ] in
  let paper = Suite.paper_suite in
  let noise = List.filter (fun (e : Suite.entry) -> e.noise_subset) paper in
  let noise_columns =
    [
      sabre;
      col "SABRE+HA" P.Sabre_ha;
      nassc;
      col "NASSC+HA" (P.Nassc_ha Qroute.Nassc.default_config);
      col "HYBRID" (P.Hybrid_router Qroute.Hybrid.default_config);
    ]
  in
  let x key title ?(devices = montreal) ?(entries = Suite.small_suite) columns derive =
    { key; title; devices; entries; columns; derive }
  in
  [
    x "table1" "Table I: additional CNOT gates" ~entries:paper [ sabre; nassc ] (Vs_sabre Cx);
    x "table2" "Table II: circuit depth" ~entries:paper [ sabre; nassc ] (Vs_sabre Depth);
    x "table3" "Table III: additional CNOT gates" ~devices:linear ~entries:paper [ sabre; nassc ]
      (Vs_sabre Cx);
    x "table4" "Table IV: additional CNOT gates" ~devices:grid ~entries:paper [ sabre; nassc ]
      (Vs_sabre Cx);
    (* 8 NASSC configurations per benchmark: the non-heavy suite unless --full *)
    x "fig9" "Figure 9: CNOT reduction vs SABRE, best-of-8 combos vs all-enabled"
      ~devices:(montreal @ linear @ grid)
      ~entries:(if full then paper else Suite.small_suite)
      (sabre :: combos) Best_of;
    x "fig11a" "Figure 11a: additional CNOT count on the noise setup" ~entries:noise noise_columns
      Added;
    x "fig11b"
      (Printf.sprintf "Figure 11b: success rate (ESP) under the noise model, %d shots" shots)
      ~entries:noise noise_columns Success_rates;
    x "routers" "Router comparison (added CNOTs)"
      [
        col "A*-layers" P.Astar_router;
        sabre;
        nassc;
        col "Hybrid" (P.Hybrid_router Qroute.Hybrid.default_config);
      ]
      Added;
    x "trials"
      (Printf.sprintf "Best-of-N trials sweep (seed 11, %d workers)"
         (Qroute.Trials.default_workers ()))
      [ { sabre with params = { Qroute.Engine.default_params with seed = 11 } } ]
      (Trials_sweep [ 1; 2; 4; 8 ]);
    x "ablate-decomp" "Ablation: optimization-aware SWAP decomposition (added CNOTs)"
      [
        { sabre with label = "SABRE add" };
        { nassc with label = "NASSC add" };
        col "NASSC-no-orient"
          (P.Nassc_router { Qroute.Nassc.default_config with orient_swaps = false });
      ]
      Added;
    x "ablate-lookahead" "Ablation: extended-layer size |E| and weight W (NASSC added CNOTs)"
      ~entries:
        (List.map Suite.find
           [ "Grover 6-qubits"; "VQE 8-qubits"; "QFT 15-qubits"; "Adder 10-qubits" ])
      (List.map
         (fun (ext_size, ext_weight) ->
           {
             nassc with
             label = Printf.sprintf "|E|=%d W=%.1f" ext_size ext_weight;
             params = { Qroute.Engine.default_params with ext_size; ext_weight };
           })
         [ (0, 0.0); (10, 0.5); (20, 0.5); (40, 0.5); (20, 0.0); (20, 1.0) ])
      Added;
  ]

(* the [--only] names of the paper's experiments *)
let keys = List.map (fun x -> x.key) (experiments ~full:false ~shots:0)

(* ---- tables ---- *)

(* How a field prints.  [Seeds] is stored but not printed; [Mean n] holds
   a sum over [n] seeds and prints as the mean; [Pct] and [Rate] are
   rounded to their printed decimals, so the snapshot holds exactly what
   is printed; [Time] columns are printed but never stored. *)
type kind = Seeds | Count | Mean of int | Pct | Rate | Text | Time

type table = {
  device : string;
  rows : (string * (string * kind * J.t) list) list;  (** entry name, its fields *)
  footer : (string * kind * J.t) list;
}

let fixed digits x = J.Num (float_of_string (Printf.sprintf "%.*f" digits x))
let pct x = fixed 2 (100.0 *. x)
let mean_of xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* one column on one entry over the routing seeds: the metric summed, its
   mean, and the mean wall time *)
type run = { n : int; sum : int; mean : float; time : float }

let run ~seeds device get (e : Suite.entry) c =
  let n = if e.heavy then min 3 seeds else seeds in
  let cs = List.init n (fun i -> transpile device e c.router { c.params with seed = i + 1 }) in
  let sum = List.fold_left (fun acc cl -> acc + get cl) 0 cs in
  {
    n;
    sum;
    mean = float_of_int sum /. float_of_int n;
    time = mean_of (List.map (fun (cl : cell) -> cl.time) cs);
  }

let table ~seeds ~shots x ((dname, coupling) as device) =
  let get = match x.derive with Vs_sabre Depth -> fun c -> c.depth | _ -> fun c -> c.cx in
  let base e =
    get (transpile device e P.Full_connectivity { Qroute.Engine.default_params with seed = 1 })
  in
  let runs e = List.map (run ~seeds device get e) x.columns in
  let added label b r = (label, Mean r.n, J.int (r.sum - (r.n * b))) in
  let seeds_of r = ("seeds", Seeds, J.int r.n) in
  let plain f =
    let rows = List.map (fun (e : Suite.entry) -> (e.name, f e)) x.entries in
    { device = dname; rows; footer = [] }
  in
  match x.derive with
  | Added ->
      plain (fun e ->
          let b = base e and rs = runs e in
          seeds_of (List.hd rs) :: List.map2 (fun c r -> added c.label b r) x.columns rs)
  | Vs_sabre metric ->
      let name = if metric = Cx then "CNOT" else "depth" and timed = metric = Cx in
      let d_tot = "d" ^ name ^ "tot" and d_add = "d" ^ name ^ "add" in
      let if_timed l = if timed then l else [] in
      let s_col, n_col =
        match x.columns with [ s; n ] -> (s, n) | _ -> invalid_arg "Vs_sabre: SABRE, NASSC"
      in
      let stats =
        List.map
          (fun (e : Suite.entry) ->
            let b = base e in
            let fb = float_of_int b in
            let s = run ~seeds device get e s_col and n = run ~seeds device get e n_col in
            let dt = Qroute.Metrics.delta n.mean s.mean in
            let da = Qroute.Metrics.delta (n.mean -. fb) (s.mean -. fb) in
            let ratio = if s.time = 0.0 then 1.0 else n.time /. s.time in
            let side c r =
              [ (c.label ^ "tot", Mean r.n, J.int r.sum); added (c.label ^ "add") b r ]
              @ if_timed [ (c.label ^ " time(s)", Time, J.Num r.time) ]
            in
            ( ( e.name,
                (seeds_of s :: (name ^ "tot", Count, J.int b) :: side s_col s)
                @ side n_col n
                @ [ (d_tot, Pct, pct dt); (d_add, Pct, pct da) ]
                @ if_timed [ ("t_ratio", Time, J.Num ratio) ] ),
              (dt, da, ratio) ))
          x.entries
      in
      let over f = List.map (fun (_, d) -> f d) stats in
      let geo f = pct (Qroute.Metrics.geometric_mean (over f)) in
      {
        device = dname;
        rows = List.map fst stats;
        footer =
          [
            ("geomean " ^ d_tot, Pct, geo (fun (t, _, _) -> t));
            ("geomean " ^ d_add, Pct, geo (fun (_, a, _) -> a));
          ]
          @ if_timed [ ("mean t_ratio", Time, J.Num (mean_of (over (fun (_, _, r) -> r)))) ];
      }
  | Best_of ->
      plain (fun e ->
          let b = base e in
          let fb = float_of_int b in
          let s, configs =
            match List.combine x.columns (runs e) with
            | (_, s) :: configs -> (s, configs)
            | [] -> invalid_arg "Best_of"
          in
          let reductions =
            List.map
              (fun (c, r) -> (c.label, Qroute.Metrics.delta (r.mean -. fb) (s.mean -. fb)))
              configs
          in
          let best_label, best =
            List.fold_left
              (fun (bl, bv) (l, v) -> if v > bv then (l, v) else (bl, bv))
              ("", neg_infinity) reductions
          in
          let all = snd (List.nth reductions (List.length reductions - 1)) in
          [
            seeds_of s;
            added "SABRE add" b s;
            ("best-of-8", Pct, pct best);
            ("all-enabled", Pct, pct all);
            (* a tie with the best is the all-enabled combination's too *)
            ("best=?", Text, J.Str (if all = best then "yes" else best_label));
          ])
  | Success_rates ->
      let cal = Topology.Calibration.generate coupling in
      plain (fun e ->
          List.map
            (fun c ->
              let sr, esp =
                match (transpile device e c.router { c.params with seed = 1 }).routed with
                | None -> (0.0, 0.0)
                | Some (routed, final_layout) ->
                    let o =
                      Qsim.Success.routed_success ~shots ~cal ~ideal:(circuit e) ~routed
                        ~final_layout ()
                    in
                    (o.success_rate, o.esp)
              in
              (c.label, Rate, J.List [ fixed 3 sr; fixed 3 esp ]))
            x.columns)
  | Trials_sweep ns ->
      let c = List.hd x.columns and n_max = List.fold_left max 1 ns in
      plain (fun e ->
          let go ?workers trials =
            P.transpile ~params:c.params ~trials ?workers ~router:c.router coupling (circuit e)
          in
          let seq = List.map (fun n -> (n, go ~workers:1 n)) ns in
          let seq_s = (List.assoc n_max seq).transpile_time in
          let par_s = (go n_max).transpile_time in
          List.map
            (fun (n, (r : P.result)) -> (Printf.sprintf "cx@%d" n, Count, J.int r.cx_total))
            seq
          @ [
              ("seq(s)", Time, J.Num seq_s);
              ("par(s)", Time, J.Num par_s);
              ("speedup", Time, J.Num (seq_s /. par_s));
            ])

(* ---- the printer and the snapshot ---- *)

let render kind v =
  match (kind, v) with
  | Mean n, J.Num x -> Printf.sprintf "%.1f" (x /. float_of_int n)
  | Pct, J.Num x -> Printf.sprintf "%.2f%%" x
  | Rate, J.List [ J.Num sr; J.Num esp ] -> Printf.sprintf "%.3f(%.3f)" sr esp
  | Text, J.Str s -> s
  | Time, J.Num x -> Printf.sprintf "%.3f" x
  | _, J.Num x -> Printf.sprintf "%.0f" x
  | _ -> "?"

let print title t =
  let shown = List.filter (fun (_, k, _) -> k <> Seeds) in
  let header =
    match t.rows with (_, fs) :: _ -> List.map (fun (f, _, _) -> f) (shown fs) | [] -> []
  in
  let lines =
    ("name" :: header)
    :: List.map (fun (name, fs) -> name :: List.map (fun (_, k, v) -> render k v) (shown fs)) t.rows
  in
  let widths =
    List.fold_left
      (List.map2 (fun w c -> max w (String.length c)))
      (List.map (fun _ -> 0) (List.hd lines))
      lines
  in
  let text cells =
    String.concat " "
      (List.mapi
         (fun i (w, c) -> if i = 0 then Printf.sprintf "%-*s" w c else Printf.sprintf "%*s" w c)
         (List.combine widths cells))
  in
  let rule = String.make (List.fold_left ( + ) (List.length widths - 1) widths) '-' in
  Printf.printf "=== %s, %s ===\n%s\n%s\n" title t.device (text (List.hd lines)) rule;
  List.iter (fun l -> print_endline (text l)) (List.tl lines);
  if t.footer <> [] then
    Printf.printf "%s\n%s\n" rule
      (String.concat "   " (List.map (fun (l, k, v) -> l ^ " = " ^ render k v) t.footer));
  print_newline ()

let snapshot t =
  let stored fs =
    J.Obj (List.filter_map (fun (f, k, v) -> if k = Time then None else Some (f, v)) fs)
  in
  J.Obj
    (("rows", J.Obj (List.map (fun (name, fs) -> (name, stored fs)) t.rows))
    :: (if t.footer = [] then [] else [ ("footer", stored t.footer) ]))

(* Run the experiments [only] selects ("all": every one), print each table,
   and write the deterministic columns through {!Qbench.Snapshot}. *)
let run ~only ~seeds ~shots ~full ?out () =
  match List.filter (fun x -> only = "all" || only = x.key) (experiments ~full ~shots) with
  | [] -> ()
  | chosen ->
      let results =
        List.map
          (fun x ->
            let ts = List.map (table ~seeds ~shots x) x.devices in
            List.iter (print x.title) ts;
            (x.key, J.Obj (List.map (fun t -> (t.device, snapshot t)) ts)))
          chosen
      in
      let doc =
        Qbench.Snapshot.document ~schema_version:1 ~kind:"paper"
          ([ ("seeds", J.int seeds); ("shots", J.int shots); ("full", J.Bool full) ] @ results)
      in
      Printf.printf "snapshot: %s\n" (Qbench.Snapshot.write ?out ~suffix:"-paper" doc)
