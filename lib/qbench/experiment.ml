(* Experiments as data.  An experiment names its devices, its entries and
   its router columns, and a derive case says what each table holds; every
   transpile goes through one memo per {!run}, every table through one
   printer, one snapshot writer and one golden-line renderer.  The paper's
   evaluation (bench/paper.ml), the benchmark matrix and the optimality-gap
   table are all experiments. *)

module J = Jsonlite
module P = Qroute.Pipeline

type column = {
  label : string;
  router : P.router;
  params : Qroute.Engine.params;
  trials : int;
}

type metric = Cx | Depth

type derive =
  | Added
  | Vs_sabre of metric
  | Best_of
  | Success_rates of int
  | Trials_sweep of int list
  | Matrix
  | Gap

type experiment = {
  key : string;
  title : string;
  devices : (string * Topology.Coupling.t) list;
  entries : Suite.entry list;
  columns : column list;
  derive : derive;
}

let col ?(params = Qroute.Engine.default_params) ?(trials = 1) label router =
  { label; router; params; trials }

(* How a field prints.  [Seeds] is stored but not printed; [Mean n] holds
   a sum over [n] seeds and prints as the mean; [Pct] and [Rate] are
   rounded to their printed decimals, so the snapshot holds exactly what
   is printed; [Real] is stored exactly and printed to 4 decimals; [Time]
   columns are printed but never stored. *)
type kind = Seeds | Count | Mean of int | Pct | Rate | Real | Text | Time

type field = string * kind * J.t
type row = { entry : string; column : string option; fields : field list }
type table = { device : string; rows : row list; footer : field list }

let row_name r = match r.column with None -> r.entry | Some c -> r.entry ^ " " ^ c

(* ---- the memo ---- *)

type cell = {
  cx : int;
  depth : int;
  swaps : int;
  time : float;
  routed : (Qcircuit.Circuit.t * int array) option;
      (* routed circuit and final layout, kept by detailed cells only *)
  steps : int;  (* flight-recorder totals of a detailed cell *)
  candidates : int;
}

type memo = {
  workers : int option;
  circuits : (string, Qcircuit.Circuit.t) Hashtbl.t;
  cells : (string * string * P.router * Qroute.Engine.params * int * bool, cell) Hashtbl.t;
}

let circuit m (e : Suite.entry) =
  match Hashtbl.find_opt m.circuits e.name with
  | Some c -> c
  | None ->
      let c = e.build () in
      Hashtbl.add m.circuits e.name c;
      c

(* Each distinct transpile runs once per memo, whichever experiments share
   it; the unrouted baseline ignores the device.  A [detail]ed cell routes
   under a recording collector and keeps the routed circuit: what the ESP,
   success-rate and recorder columns need. *)
let cell m ?(detail = false) (dname, coupling) (e : Suite.entry) c ~seed =
  let params = { c.params with seed } in
  let dname = if c.router = P.Full_connectivity then "" else dname in
  let key = (dname, e.name, c.router, params, c.trials, detail) in
  match Hashtbl.find_opt m.cells key with
  | Some cl -> cl
  | None ->
      let go () =
        P.transpile ~params ~trials:c.trials ?workers:m.workers ~router:c.router coupling
          (circuit m e)
      in
      let recorder = Qobs.Collector.create ~label:"experiment" ~record:true () in
      let r = if detail then Qobs.with_collector recorder go else go () in
      let t = Qobs.Recorder.totals recorder in
      let cl =
        {
          cx = r.cx_total;
          depth = r.depth;
          swaps = r.n_swaps;
          time = r.transpile_time;
          routed = (if detail then Option.map (fun fl -> (r.circuit, fl)) r.final_layout else None);
          steps = t.steps;
          candidates = t.candidates;
        }
      in
      Hashtbl.add m.cells key cl;
      cl

(* ---- tables ---- *)

let fixed digits x = J.Num (float_of_string (Printf.sprintf "%.*f" digits x))
let pct x = fixed 2 (100.0 *. x)
let mean_of xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let unrouted = col "unrouted" P.Full_connectivity

(* one column on one entry over the routing seeds: the metric summed, its
   mean, and the mean wall time *)
type run = { n : int; sum : int; mean : float; time : float }

let seed_runs m ~seeds device get (e : Suite.entry) c =
  let n = if e.heavy then min 3 seeds else seeds in
  let cs = List.init n (fun i -> cell m device e c ~seed:(i + 1)) in
  let sum = List.fold_left (fun acc cl -> acc + get cl) 0 cs in
  {
    n;
    sum;
    mean = float_of_int sum /. float_of_int n;
    time = mean_of (List.map (fun (cl : cell) -> cl.time) cs);
  }

let table m ~seeds x ((dname, coupling) as device) =
  let get = match x.derive with Vs_sabre Depth -> fun c -> c.depth | _ -> fun c -> c.cx in
  let base e = get (cell m device e unrouted ~seed:1) in
  let runs e = List.map (seed_runs m ~seeds device get e) x.columns in
  let added label b r = (label, Mean r.n, J.int (r.sum - (r.n * b))) in
  let seeds_of r = ("seeds", Seeds, J.int r.n) in
  let plain f =
    let rows =
      List.map (fun (e : Suite.entry) -> { entry = e.name; column = None; fields = f e }) x.entries
    in
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
            let s = seed_runs m ~seeds device get e s_col
            and n = seed_runs m ~seeds device get e n_col in
            let dt = Qroute.Metrics.delta n.mean s.mean in
            let da = Qroute.Metrics.delta (n.mean -. fb) (s.mean -. fb) in
            let ratio = if s.time = 0.0 then 1.0 else n.time /. s.time in
            let side c r =
              [ (c.label ^ "tot", Mean r.n, J.int r.sum); added (c.label ^ "add") b r ]
              @ if_timed [ (c.label ^ " time(s)", Time, J.Num r.time) ]
            in
            ( {
                entry = e.name;
                column = None;
                fields =
                  (seeds_of s :: (name ^ "tot", Count, J.int b) :: side s_col s)
                  @ side n_col n
                  @ [ (d_tot, Pct, pct dt); (d_add, Pct, pct da) ]
                  @ if_timed [ ("t_ratio", Time, J.Num ratio) ];
              },
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
  | Success_rates shots ->
      let cal = Topology.Calibration.generate coupling in
      plain (fun e ->
          List.map
            (fun c ->
              let sr, esp =
                match (cell m ~detail:true device e c ~seed:1).routed with
                | None -> (0.0, 0.0)
                | Some (routed, final_layout) ->
                    let o =
                      Qsim.Success.routed_success ~shots ~cal ~ideal:(circuit m e) ~routed
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
            P.transpile ~params:c.params ~trials ?workers ~router:c.router coupling (circuit m e)
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
  | Matrix ->
      let cal = Topology.Calibration.generate coupling in
      let rows =
        List.concat_map
          (fun (e : Suite.entry) ->
            let base_depth = (cell m device e unrouted ~seed:1).depth in
            List.map
              (fun c ->
                let cl = cell m ~detail:true device e c ~seed:c.params.seed in
                let esp =
                  match cl.routed with
                  | Some (routed, final_layout) ->
                      Qsim.Success.routed_esp ~cal ~routed ~final_layout
                  | None -> 1.0
                in
                {
                  entry = e.name;
                  column = Some c.label;
                  fields =
                    [
                      ("cx", Count, J.int cl.cx);
                      ("swaps", Count, J.int cl.swaps);
                      ("depth", Count, J.int cl.depth);
                      ( "overhead",
                        Real,
                        J.Num (float_of_int cl.depth /. float_of_int (max 1 base_depth)) );
                      ("esp", Real, J.Num esp);
                      ("steps", Count, J.int cl.steps);
                      ("cand", Count, J.int cl.candidates);
                    ];
                })
              x.columns)
          x.entries
      in
      { device = dname; rows; footer = [] }
  | Gap ->
      let rows = List.map (fun e -> (e, Gapcorpus.row e coupling)) x.entries in
      let certified =
        List.filter_map
          (fun (_, (r : Gapcorpus.row)) -> Option.map (fun o -> (o, r.swaps)) r.optimal)
          rows
      in
      let gap name =
        List.fold_left (fun acc (o, swaps) -> acc + List.assoc name swaps - o) 0 certified
      in
      {
        device = dname;
        rows =
          List.map
            (fun ((e : Suite.entry), (r : Gapcorpus.row)) ->
              {
                entry = e.name;
                column = None;
                fields =
                  ("2q", Count, J.int r.two_q)
                  :: ("opt", Count, Option.fold ~none:J.Null ~some:J.int r.optimal)
                  :: List.map (fun (name, s) -> (name, Count, J.int s)) r.swaps;
              })
            rows;
        footer =
          ("certified", Count, J.int (List.length certified))
          :: List.map (fun (name, _) -> (name ^ " gap", Count, J.int (gap name))) Gapcorpus.routers;
      }

(* ---- the printer, the snapshot and the golden lines ---- *)

let render kind v =
  match (kind, v) with
  | Mean n, J.Num x -> Printf.sprintf "%.1f" (x /. float_of_int n)
  | Pct, J.Num x -> Printf.sprintf "%.2f%%" x
  | Rate, J.List [ J.Num sr; J.Num esp ] -> Printf.sprintf "%.3f(%.3f)" sr esp
  | Real, J.Num x -> Printf.sprintf "%.4f" x
  | Text, J.Str s -> s
  | Time, J.Num x -> Printf.sprintf "%.3f" x
  | _, J.Num x -> Printf.sprintf "%.0f" x
  | _ -> "?"

let print_table title t =
  let shown = List.filter (fun (_, k, _) -> k <> Seeds) in
  let header =
    match t.rows with r :: _ -> List.map (fun (f, _, _) -> f) (shown r.fields) | [] -> []
  in
  let lines =
    ("name" :: header)
    :: List.map
         (fun r -> row_name r :: List.map (fun (_, k, v) -> render k v) (shown r.fields))
         t.rows
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

let stored fs = List.filter (fun (_, k, _) -> k <> Time) fs

let snapshot tables =
  let obj fs = J.Obj (List.map (fun (f, _, v) -> (f, v)) (stored fs)) in
  J.Obj
    (List.map
       (fun t ->
         ( t.device,
           J.Obj
             (("rows", J.Obj (List.map (fun r -> (row_name r, obj r.fields)) t.rows))
             :: (if t.footer = [] then [] else [ ("footer", obj t.footer) ])) ))
       tables)

let value = function J.Num x -> J.number_to_string x | J.Str s -> s | _ -> "?"

let lines (x, tables) =
  let line device r =
    String.concat " "
      ((r.entry :: device :: Option.to_list r.column)
      @ List.map (fun (f, _, v) -> f ^ "=" ^ value v) (stored r.fields))
    ^ "\n"
  in
  String.concat ""
    (List.concat_map
       (fun (e : Suite.entry) ->
         List.concat_map
           (fun t ->
             List.filter_map
               (fun r -> if r.entry = e.name then Some (line t.device r) else None)
               t.rows)
           tables)
       x.entries)

let run ?workers ?(seeds = 5) ?(print = false) xs =
  let m = { workers; circuits = Hashtbl.create 16; cells = Hashtbl.create 1024 } in
  List.map
    (fun x ->
      let ts = List.map (table m ~seeds x) x.devices in
      if print then List.iter (print_table x.title) ts;
      (x, ts))
    xs

(* ---- the benchmark matrix and the optimality-gap table ---- *)

let matrix ~full =
  let params = { Qroute.Engine.default_params with seed = 11 } in
  {
    key = "matrix";
    title = "Benchmark matrix: routers x topologies x circuit families (seed 11, 4 trials)";
    devices = Matrix.topologies ~quick:(not full);
    entries = Matrix.instances ~quick:(not full);
    columns = List.map (fun (label, router) -> col ~params ~trials:4 label router) P.routers;
    derive = Matrix;
  }

let gap ~full =
  {
    key = "gap";
    title =
      Printf.sprintf "Optimality gap: exact optimum and inserted SWAPs (seed %d, 1 trial)"
        Gapcorpus.seed;
    devices = Gapcorpus.topologies;
    entries = Gapcorpus.suite ~quick:(not full);
    columns = [];
    derive = Gap;
  }
