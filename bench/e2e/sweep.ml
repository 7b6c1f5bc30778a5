(* Run sets and their comparison.  [sweep] runs each workload once per
   seed, each run in a child process (so peak RSS is per run), and writes
   every run's result object to one file; [compare] reads two such files,
   pairs their runs by seed and judges every (workload, end-to-end metric)
   pair against the bounds in BENCHMARK.json. *)

module J = Qbench.Jsonlite

type run = { workload : string; seed : int; result : J.t  (** the run's last output line *) }

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      exit 2)
    fmt

let parse path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> fail "%s" e
  in
  try J.of_string text with J.Parse_error e -> fail "%s: %s" path e

let field name j = match J.member name j with Some v -> v | None -> fail "missing field %S" name
let typed conv what name j =
  match conv (field name j) with Some v -> v | None -> fail "%S: not a %s" name what

let str = typed J.to_string "string"
let num = typed J.to_float "number"
let list = typed J.to_list "list"
let correct r = J.member "correct" r.result = Some (J.Bool true)

let metric r name =
  Option.bind (J.member "metrics" r.result) (J.member name)
  |> Fun.flip Option.bind (J.member "value")
  |> Fun.flip Option.bind J.to_float

let metric_names r =
  match J.member "metrics" r.result with Some (J.Obj kvs) -> List.map fst kvs | _ -> []

(* ---- sweep ---- *)

let run_child ~workload ~seed ~seconds =
  let argv =
    [|
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      J.number_to_string seconds; "--trace"; "0";
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  ignore (Unix.close_process_in ic);
  match List.rev lines with
  | last :: _ -> (
      try Some { workload; seed; result = J.of_string last } with J.Parse_error _ -> None)
  | [] -> None

let summarize runs =
  List.iter
    (fun w ->
      match List.filter (fun r -> r.workload = w) runs with
      | [] -> ()
      | rs ->
          List.iter
            (fun name ->
              let vs = List.filter_map (fun r -> metric r name) rs in
              Printf.printf "%-16s %-15s median %-20s spread %6.2f%%  (%d runs)\n" w name
                (J.number_to_string (Stats.median vs))
                (100.0 *. Stats.spread vs) (List.length vs))
            (metric_names (List.hd rs)))
    Workloads.names

let sweep_main args =
  let seeds = ref (1, 10) and seconds = ref 10.0 and out = ref "" in
  let spec =
    [
      ( "--seeds",
        Arg.String (fun s -> seeds := Scanf.sscanf s "%d-%d%!" (fun a b -> (a, b))),
        "A-B seed range (default 1-10)" );
      ("--seconds", Arg.Set_float seconds, "S measuring time per run (default 10)");
      ("--out", Arg.Set_string out, "FILE where to write the run set");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) (Array.of_list ("sweep" :: args)) spec
       (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
       "e2e.exe sweep"
   with Arg.Bad m | Arg.Help m | Scanf.Scan_failure m -> fail "%s" m);
  if !out = "" then fail "sweep: --out FILE is required";
  let lo, hi = !seeds in
  let runs = ref [] and broken = ref 0 in
  List.iter
    (fun workload ->
      for seed = lo to hi do
        match run_child ~workload ~seed ~seconds:!seconds with
        | Some r ->
            Printf.printf "%s seed %d: %s\n%!" workload seed (if correct r then "ok" else "FAILED");
            if not (correct r) then incr broken;
            runs := r :: !runs
        | None ->
            Printf.printf "%s seed %d: no result\n%!" workload seed;
            incr broken
      done)
    Workloads.names;
  let runs = List.rev !runs in
  let run_json r =
    J.Obj
      [
        ("workload", J.Str r.workload);
        ("seed", J.Num (float_of_int r.seed));
        ("result", r.result);
      ]
  in
  let doc =
    J.Obj
      [
        ("seconds", J.Num !seconds);
        ("seeds", J.Str (Printf.sprintf "%d-%d" lo hi));
        ("runs", J.List (List.map run_json runs));
      ]
  in
  Out_channel.with_open_bin !out (fun oc -> output_string oc (J.serialize ~indent:1 doc ^ "\n"));
  summarize runs;
  Printf.printf "wrote %s (%d runs, %d failed)\n" !out (List.length runs) !broken;
  if !broken = 0 then 0 else 1

(* ---- compare ---- *)

(* A metric whose unit is [count] is exact for a given seed (CX count and
   depth do not depend on timing), so any seed on which it worsens is a
   regression: its bound in BENCHMARK.json only covers the spread across
   seeds that the benchmark's acceptance measures. *)
type bound = { name : string; exact : bool; lower_is_better : bool; bound : float }

let bounds_of path =
  List.map
    (fun m ->
      {
        name = str "name" m;
        exact = str "unit" m = "count";
        lower_is_better = str "better" m = "lower";
        bound = num "bound" m;
      })
    (list "end_to_end" (parse path))

let runs_of path =
  List.map
    (fun r ->
      let seed = int_of_float (num "seed" r) in
      { workload = str "workload" r; seed; result = field "result" r })
    (list "runs" (parse path))

(* (seed, A's value, B's value) for every seed both sets ran *)
let paired ra rb w name =
  List.filter_map
    (fun a ->
      if a.workload <> w then None
      else
        match List.find_opt (fun b -> b.workload = w && b.seed = a.seed) rb with
        | None -> None
        | Some b -> (
            match (metric a name, metric b name) with
            | Some va, Some vb -> Some (a.seed, va, vb)
            | _ -> None))
    ra
  |> List.sort compare

(* Runs are paired by seed, because the seed changes the routing and so
   the work: each seed is its own workload, and only two runs of the same
   seed show the noise.  [worse] is the median over seeds of B's change as
   a share of A, positive when B is worse; the noise is the spread of the
   per-seed ratios B/A.  Run from the repository root, where
   BENCHMARK.json holds the bounds. *)
let compare_sets a b =
  let bounds = bounds_of "BENCHMARK.json" and ra = runs_of a and rb = runs_of b in
  let regressed = ref 0 and unresolved = ref 0 in
  Printf.printf "%-16s %-15s %14s %14s %8s %8s %7s  %s\n" "workload" "metric" "median A"
    "median B" "worse" "noise" "bound" "status";
  List.iter
    (fun w ->
      List.iter
        (fun { name; exact; lower_is_better; bound } ->
          let has r = r.workload = w && metric r name <> None in
          match paired ra rb w name with
          | [] when not (List.exists has ra || List.exists has rb) -> ()
          | [] ->
              incr regressed;
              Printf.printf "%-16s %-15s no seed in common\n" w name
          | pairs ->
              let worse_of (_, va, vb) =
                (if lower_is_better then vb -. va else va -. vb) /. Float.abs va
              in
              let worse = Stats.median (List.map worse_of pairs) in
              let noise = Stats.spread (List.map (fun (_, va, vb) -> vb /. va) pairs) in
              let status =
                if exact then
                  match List.filter (fun p -> worse_of p > 0.0) pairs with
                  | [] -> "ok (exact per seed)"
                  | worse_seeds ->
                      incr regressed;
                      Printf.sprintf "REGRESSED on seeds %s"
                        (String.concat ","
                           (List.map (fun (seed, _, _) -> string_of_int seed) worse_seeds))
                else if noise > bound then (
                  incr unresolved;
                  "unresolved")
                else if worse > bound then (
                  incr regressed;
                  "REGRESSED")
                else "ok"
              in
              let median f = Stats.median (List.map f pairs) in
              Printf.printf "%-16s %-15s %14.6g %14.6g %7.2f%% %7.2f%% %6.1f%%  %s\n" w name
                (median (fun (_, va, _) -> va))
                (median (fun (_, _, vb) -> vb))
                (100.0 *. worse) (100.0 *. noise) (100.0 *. bound) status)
        bounds)
    Workloads.names;
  let failed = List.length (List.filter (fun r -> not (correct r)) (ra @ rb)) in
  Printf.printf "%d regressed, %d unresolved, %d failed runs\n" !regressed !unresolved failed;
  if !regressed = 0 && failed = 0 then 0 else 1

let compare_main = function
  | [ a; b ] -> compare_sets a b
  | _ -> fail "usage: e2e.exe compare A.json B.json"
