(* Prometheus/OpenMetrics text exposition over a Qobs trace.

   The format is line-oriented and self-describing:

     # HELP nassc_engine_swaps_emitted_total Qobs counter engine.swaps_emitted
     # TYPE nassc_engine_swaps_emitted_total counter
     nassc_engine_swaps_emitted_total 106

   Histograms use the cumulative convention: each _bucket{le="U"} series
   carries the count of observations <= U, ending with le="+Inf" equal to
   _count.  We emit one bucket per shared Hist bucket boundary up to the
   last occupied bucket (145 always-zero lines per histogram would drown
   the page), which is valid: scrapers only require cumulative
   monotonicity and a +Inf bucket. *)

let valid_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let metric_name name =
  "nassc_" ^ String.map (fun c -> if valid_char c then c else '_') name

(* shortest-round-trip float rendering, shared with the BENCH snapshots *)
let num = Qbench.Jsonlite.number_to_string

let help_escape s =
  (* HELP text is free-form to end of line; escape backslash and newline *)
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let family buf name kind help =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (help_escape help));
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

(* gauge series: one per (name, trial) key; a later collector in preorder
   overwrites an earlier one with the same key (matching the last-write-wins
   semantics of Qobs.gauge_set), so e.g. a root and a session child that
   both set pipeline.cx_in collapse into one series instead of a duplicate *)
let gauge_series trace =
  let tbl : (string * int option, float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun c ->
      let trial = Qobs.Collector.trial c in
      List.iter
        (fun (name, v) -> Hashtbl.replace tbl (name, trial) v)
        (Qobs.Collector.gauges c))
    (Qobs.Trace.collectors trace);
  let names =
    Hashtbl.fold (fun (n, _) _ acc -> if List.mem n acc then acc else n :: acc) tbl []
    |> List.sort compare
  in
  List.map
    (fun name ->
      let series =
        Hashtbl.fold
          (fun (n, trial) v acc -> if n = name then (trial, v) :: acc else acc)
          tbl []
        |> List.sort compare
      in
      (name, series))
    names

let to_string trace =
  let buf = Buffer.create 4096 in
  (* counters: registry totals over the whole trace, sorted by name *)
  List.iter
    (fun (name, v) ->
      let m = metric_name name ^ "_total" in
      family buf m "counter" ("Qobs counter " ^ name);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" m v))
    (Qobs.Trace.counters_total trace);
  (* gauges: one series per (name, trial), trial-labelled *)
  List.iter
    (fun (name, series) ->
      let m = metric_name name in
      family buf m "gauge" ("Qobs gauge " ^ name);
      List.iter
        (fun (trial, v) ->
          match trial with
          | None -> Buffer.add_string buf (Printf.sprintf "%s %s\n" m (num v))
          | Some k ->
              Buffer.add_string buf (Printf.sprintf "%s{trial=\"%d\"} %s\n" m k (num v)))
        series)
    (gauge_series trace);
  (* histograms: merged totals, cumulative buckets *)
  List.iter
    (fun (name, h) ->
      let m = metric_name name in
      family buf m "histogram" ("Qobs histogram " ^ name);
      let cum = ref 0 in
      List.iter
        (fun (i, c) ->
          cum := !cum + c;
          let _, upper = Qobs.Hist.bucket_bounds i in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m (num upper) !cum))
        (Qobs.Hist.nonzero_buckets h);
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m (Qobs.Hist.count h));
      Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" m (num (Qobs.Hist.sum h)));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" m (Qobs.Hist.count h)))
    (Qobs.Trace.histograms_total trace);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
