(* Spans + counters + gauges with a disabled fast path, and the routing
   flight recorder that rides on the same collectors.

   Counter/gauge identities are process-global interned ids; values live in
   per-collector arrays indexed by id.  The only cross-domain state is the
   registry (touched at module init, mutex-protected) and one atomic count
   of installed collectors, read on every probe (recorder hooks included)
   as the fast-path gate. *)

(* ---- submodules re-exported as part of the public interface ---- *)

module Hist = Hist

(* ---- JSON string escaping, shared by every JSON writer ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ---- registries ---- *)

type counter = int
type gauge = int
type histogram = int

let registry_lock = Mutex.create ()

type registry = { mutable names : string array; mutable count : int; tbl : (string, int) Hashtbl.t }

let mk_registry () = { names = Array.make 16 ""; count = 0; tbl = Hashtbl.create 32 }
let counter_reg = mk_registry ()
let gauge_reg = mk_registry ()
let hist_reg = mk_registry ()

let intern reg name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt reg.tbl name with
      | Some id -> id
      | None ->
          let id = reg.count in
          if id >= Array.length reg.names then begin
            let bigger = Array.make (2 * Array.length reg.names) "" in
            Array.blit reg.names 0 bigger 0 id;
            reg.names <- bigger
          end;
          reg.names.(id) <- name;
          reg.count <- reg.count + 1;
          Hashtbl.replace reg.tbl name id;
          id)

let counter name = intern counter_reg name
let gauge name = intern gauge_reg name
let histogram name = intern hist_reg name

(* ---- timing histograms opt-in ----

   Wall-clock observations (e.g. the engine's per-step scoring time) are
   inherently nondeterministic, so feeding them into histograms would break
   the byte-identical-trace guarantee of the default export.  They are off
   unless a caller that wants times (--trace-times, the profile/score
   benches) opts in process-wide. *)

let timing_flag = Atomic.make false
let set_timing b = Atomic.set timing_flag b
let timing_enabled () = Atomic.get timing_flag

let registered reg =
  Mutex.protect registry_lock (fun () -> Array.sub reg.names 0 reg.count)

(* ---- flight-recorder state ----

   What a recording collector keeps of the router's decision trail: per
   routing step the two-qubit front-layer size, every candidate SWAP with
   its H_basic / H_lookahead components and the savings bucket its bonus
   drew from (C_2q / C_commute1 / C_commute2, eq. 1 of the paper), and the
   chosen SWAP; per trial the routed-vs-final CNOT counts.  The hooks and
   exports are [Recorder] below. *)

module Flight = struct
  type bucket = No_bucket | C2q | Commute1 | Commute2

  type cand = {
    p1 : int;
    p2 : int;
    h_basic : float;
    h_lookahead : float;
    h : float;
    bonus : float;
  }

  type candidate = { cd : cand; cd_bucket : bucket }

  type step = {
    st_seq : int;
    st_router : string;
    st_front : int;
    st_forced : bool;
    st_candidates : candidate list;  (* sorted by (p1, p2) *)
    st_chosen : int * int;
    st_chosen_bonus : float;
    st_chosen_bucket : bucket;
    st_time : float;  (* wall clock at record time; Chrome export only *)
  }

  type summary = { sm_cx_routed : int; sm_cx_final : int }

  type t = {
    mutable router : string;
    mutable steps_rev : step list;
    mutable next_seq : int;
    (* buckets noted by the cost model during the current scoring round,
       consumed by the next [record_step] *)
    mutable scratch : ((int * int) * bucket) list;
    mutable summary : summary option;
  }

  let create () = { router = ""; steps_rev = []; next_seq = 0; scratch = []; summary = None }
end

(* ---- collectors ---- *)

module Collector = struct
  type span_rec = {
    sp_name : string;
    sp_seq : int;
    sp_parent : int;
    sp_depth : int;
    sp_start : float;
    mutable sp_wall : float;
    mutable sp_cpu : float;
  }

  type t = {
    label : string;
    trial : int option;
    mutable counts : int array;
    mutable gvals : float array;
    mutable gset : bool array;
    mutable hists : Hist.t option array;
    mutable done_rev : span_rec list;
    mutable stack : span_rec list;
    mutable next_seq : int;
    mutable children_rev : t list;
    (* [Some] on a recording collector; [Recorder.without] clears it for
       the duration of a call *)
    mutable flight : Flight.t option;
  }

  let create ?trial ?(label = "") ?(record = false) () =
    {
      label;
      trial;
      counts = Array.make 16 0;
      gvals = Array.make 8 0.0;
      gset = Array.make 8 false;
      hists = Array.make 8 None;
      done_rev = [];
      stack = [];
      next_seq = 0;
      children_rev = [];
      flight = (if record then Some (Flight.create ()) else None);
    }

  let trial t = t.trial
  let label t = t.label

  let spans t =
    List.sort (fun a b -> compare a.sp_seq b.sp_seq) (List.rev t.done_rev)

  let open_spans t = List.length t.stack

  let count_of t id = if id < Array.length t.counts then t.counts.(id) else 0

  let counters t =
    let names = registered counter_reg in
    Array.to_list (Array.mapi (fun id name -> (name, count_of t id)) names)
    |> List.sort compare

  let gauges t =
    let names = registered gauge_reg in
    let out = ref [] in
    Array.iteri
      (fun id name ->
        if id < Array.length t.gset && t.gset.(id) then out := (name, t.gvals.(id)) :: !out)
      names;
    List.sort compare !out

  let hist_of t id = if id < Array.length t.hists then t.hists.(id) else None

  let histograms t =
    let names = registered hist_reg in
    let out = ref [] in
    Array.iteri
      (fun id name ->
        match hist_of t id with Some h -> out := (name, h) :: !out | None -> ())
      names;
    List.sort (fun (a, _) (b, _) -> compare a b) !out

  let add_child parent child = parent.children_rev <- child :: parent.children_rev
  let children t = List.rev t.children_rev

  (* growth helpers for the value arrays *)
  let ensure_counts t id =
    if id >= Array.length t.counts then begin
      let bigger = Array.make (max (2 * Array.length t.counts) (id + 1)) 0 in
      Array.blit t.counts 0 bigger 0 (Array.length t.counts);
      t.counts <- bigger
    end

  let ensure_gauges t id =
    if id >= Array.length t.gvals then begin
      let n = max (2 * Array.length t.gvals) (id + 1) in
      let gv = Array.make n 0.0 and gs = Array.make n false in
      Array.blit t.gvals 0 gv 0 (Array.length t.gvals);
      Array.blit t.gset 0 gs 0 (Array.length t.gset);
      t.gvals <- gv;
      t.gset <- gs
    end

  let hist_slot t id =
    if id >= Array.length t.hists then begin
      let bigger = Array.make (max (2 * Array.length t.hists) (id + 1)) None in
      Array.blit t.hists 0 bigger 0 (Array.length t.hists);
      t.hists <- bigger
    end;
    match t.hists.(id) with
    | Some h -> h
    | None ->
        let h = Hist.create () in
        t.hists.(id) <- Some h;
        h
end

(* ---- the per-domain install point ---- *)

let installed = Atomic.make 0
let dls_key : Collector.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () =
  if Atomic.get installed = 0 then None else Domain.DLS.get dls_key

let active () = current () <> None

let with_collector c f =
  let prev = Domain.DLS.get dls_key in
  Domain.DLS.set dls_key (Some c);
  Atomic.incr installed;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr installed;
      Domain.DLS.set dls_key prev)
    f

(* ---- probes ---- *)

let add id by =
  match current () with
  | None -> ()
  | Some c ->
      Collector.ensure_counts c id;
      c.Collector.counts.(id) <- c.Collector.counts.(id) + by

let incr id = add id 1

let gauge_set id v =
  match current () with
  | None -> ()
  | Some c ->
      Collector.ensure_gauges c id;
      c.Collector.gvals.(id) <- v;
      c.Collector.gset.(id) <- true

let gauge_add id v =
  match current () with
  | None -> ()
  | Some c ->
      Collector.ensure_gauges c id;
      c.Collector.gvals.(id) <- c.Collector.gvals.(id) +. v;
      c.Collector.gset.(id) <- true

let observe id v =
  match current () with None -> () | Some c -> Hist.observe (Collector.hist_slot c id) v

let span name f =
  match current () with
  | None -> f ()
  | Some c ->
      let open Collector in
      let parent, depth =
        match c.stack with [] -> (-1, 0) | top :: _ -> (top.sp_seq, top.sp_depth + 1)
      in
      let w0 = Unix.gettimeofday () and t0 = Sys.time () in
      let r =
        { sp_name = name; sp_seq = c.next_seq; sp_parent = parent; sp_depth = depth;
          sp_start = w0; sp_wall = 0.0; sp_cpu = 0.0 }
      in
      c.next_seq <- c.next_seq + 1;
      c.stack <- r :: c.stack;
      Fun.protect
        ~finally:(fun () ->
          r.sp_wall <- Unix.gettimeofday () -. w0;
          r.sp_cpu <- Sys.time () -. t0;
          (* pop back to r even if an exception skipped inner closes *)
          let rec pop = function
            | top :: rest when top == r -> rest
            | _ :: rest -> pop rest
            | [] -> []
          in
          c.stack <- pop c.stack;
          c.done_rev <- r :: c.done_rev)
        f

(* ---- export ---- *)

module Trace = struct
  type t = { root : Collector.t }

  let of_root root = { root }

  (* preorder over the whole collector tree: the root, then each child's
     subtree in merge order.  For a pipeline root plus its per-trial
     children this is the root-then-children list; a deeper tree (a
     collector that adopts other runs' roots) loses no grandchild from
     counter totals or exports. *)
  let collectors t =
    let rec walk acc c = List.fold_left walk (c :: acc) (Collector.children c) in
    List.rev (walk [] t.root)

  let counters_total t =
    let names = registered counter_reg in
    let totals = Array.make (Array.length names) 0 in
    List.iter
      (fun c ->
        Array.iteri (fun id _ -> totals.(id) <- totals.(id) + Collector.count_of c id) names)
      (collectors t);
    Array.to_list (Array.mapi (fun id name -> (name, totals.(id))) names)
    |> List.sort compare

  let counter_total t name =
    match List.assoc_opt name (counters_total t) with Some v -> v | None -> 0

  let trial_field c =
    match Collector.trial c with None -> "null" | Some k -> string_of_int k

  let histograms_total t =
    let names = registered hist_reg in
    let totals = Array.make (Array.length names) None in
    List.iter
      (fun c ->
        Array.iteri
          (fun id _ ->
            match Collector.hist_of c id with
            | None -> ()
            | Some h -> (
                match totals.(id) with
                | None -> totals.(id) <- Some (Hist.copy h)
                | Some acc -> Hist.merge_into ~into:acc h))
          names)
      (collectors t);
    let out = ref [] in
    Array.iteri
      (fun id name -> match totals.(id) with Some h -> out := (name, h) :: !out | None -> ())
      names;
    List.sort (fun (a, _) (b, _) -> compare a b) !out

  let to_jsonl ?(times = false) t =
    let buf = Buffer.create 4096 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
    List.iter
      (fun c ->
        List.iter
          (fun (s : Collector.span_rec) ->
            if times then
              line
                {|{"type":"span","trial":%s,"seq":%d,"parent":%d,"depth":%d,"name":"%s","wall_ms":%.3f,"cpu_ms":%.3f}|}
                (trial_field c) s.sp_seq s.sp_parent s.sp_depth (json_escape s.sp_name)
                (1000.0 *. s.sp_wall) (1000.0 *. s.sp_cpu)
            else
              line {|{"type":"span","trial":%s,"seq":%d,"parent":%d,"depth":%d,"name":"%s"}|}
                (trial_field c) s.sp_seq s.sp_parent s.sp_depth (json_escape s.sp_name))
          (Collector.spans c))
      (collectors t);
    List.iter
      (fun (name, v) -> line {|{"type":"counter","name":"%s","value":%d}|} (json_escape name) v)
      (counters_total t);
    List.iter
      (fun c ->
        List.iter
          (fun (name, v) ->
            line {|{"type":"gauge","trial":%s,"name":"%s","value":%.12g}|} (trial_field c)
              (json_escape name) v)
          (Collector.gauges c))
      (collectors t);
    (* histogram lines appear only once something was observed, so traces
       from runs that touch no histogram stay byte-identical to older
       builds *)
    List.iter
      (fun (name, h) ->
        let buckets =
          String.concat ","
            (List.map (fun (i, c) -> Printf.sprintf "[%d,%d]" i c) (Hist.nonzero_buckets h))
        in
        line
          {|{"type":"hist","name":"%s","n":%d,"sum":%.12g,"min":%.12g,"max":%.12g,"p50":%.9g,"p90":%.9g,"p99":%.9g,"buckets":[%s]}|}
          (json_escape name) (Hist.count h) (Hist.sum h) (Hist.min_value h)
          (Hist.max_value h) (Hist.percentile h 50.0) (Hist.percentile h 90.0)
          (Hist.percentile h 99.0) buckets)
      (histograms_total t);
    Buffer.contents buf

  (* a collector's Chrome track: its trial, else its label *)
  let track_name c =
    match Collector.trial c with
    | Some k -> Printf.sprintf "trial %d" k
    | None -> (match Collector.label c with "" -> "main" | l -> l)

  (* Chrome trace_event JSON (load in Perfetto or about://tracing): one
     complete ("X") event per span, one track per collector.  Uses the
     spans' wall-clock start stamps, so unlike [to_jsonl] the output is
     nondeterministic. *)
  let to_chrome t =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf {|{"traceEvents":[|};
    let first = ref true in
    let event fmt =
      Printf.ksprintf
        (fun s ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf s)
        fmt
    in
    let t0 =
      List.fold_left
        (fun acc c ->
          List.fold_left
            (fun acc (s : Collector.span_rec) -> Float.min acc s.sp_start)
            acc (Collector.spans c))
        infinity (collectors t)
    in
    let t0 = if t0 = infinity then 0.0 else t0 in
    List.iteri
      (fun tid c ->
        event {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"%s"}}|} tid
          (json_escape (track_name c));
        List.iter
          (fun (s : Collector.span_rec) ->
            event
              {|{"name":"%s","cat":"span","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"cpu_ms":%.3f}}|}
              (json_escape s.sp_name)
              (1e6 *. (s.sp_start -. t0))
              (1e6 *. s.sp_wall) tid (1000.0 *. s.sp_cpu))
          (Collector.spans c))
      (collectors t);
    Buffer.add_string buf "]}";
    Buffer.contents buf

  (* spans aggregated by slash-joined ancestor path, across collectors; the
     per-call wall times additionally feed a histogram per path so the
     summary can report latency percentiles through the same Hist path as
     every other histogram *)
  let aggregate t =
    let rows : (string, int * float * float) Hashtbl.t = Hashtbl.create 64 in
    let hists : (string, Hist.t) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun c ->
        let spans = Collector.spans c in
        let path_of = Hashtbl.create 32 in
        List.iter
          (fun (s : Collector.span_rec) ->
            let prefix =
              match Hashtbl.find_opt path_of s.sp_parent with
              | Some p -> p ^ "/"
              | None -> ""
            in
            let path = prefix ^ s.sp_name in
            Hashtbl.replace path_of s.sp_seq path;
            (match Hashtbl.find_opt hists path with
            | Some h -> Hist.observe h s.sp_wall
            | None ->
                let h = Hist.create () in
                Hist.observe h s.sp_wall;
                Hashtbl.replace hists path h);
            (match Hashtbl.find_opt rows path with
            | None ->
                order := path :: !order;
                Hashtbl.replace rows path (1, s.sp_wall, s.sp_cpu)
            | Some (n, w, cp) -> Hashtbl.replace rows path (n + 1, w +. s.sp_wall, cp +. s.sp_cpu)))
          spans)
      (collectors t);
    List.rev_map
      (fun path -> (path, Hashtbl.find rows path, Hashtbl.find hists path))
      !order

  let pp_summary fmt t =
    let rows = aggregate t in
    let width =
      List.fold_left (fun acc (p, _, _) -> max acc (String.length p)) 24 rows
    in
    Format.fprintf fmt "%-*s %8s %12s %12s %9s %9s %9s@." width "span" "calls" "wall(ms)"
      "cpu(ms)" "p50(ms)" "p90(ms)" "p99(ms)";
    Format.fprintf fmt "%s@." (String.make (width + 66) '-');
    List.iter
      (fun (path, (calls, wall, cpu), h) ->
        Format.fprintf fmt "%-*s %8d %12.3f %12.3f %9.3f %9.3f %9.3f@." width path calls
          (1000.0 *. wall) (1000.0 *. cpu)
          (1000.0 *. Hist.percentile h 50.0)
          (1000.0 *. Hist.percentile h 90.0)
          (1000.0 *. Hist.percentile h 99.0))
      rows;
    let nonzero = List.filter (fun (_, v) -> v <> 0) (counters_total t) in
    if nonzero <> [] then begin
      Format.fprintf fmt "@.%-*s %12s@." width "counter" "value";
      Format.fprintf fmt "%s@." (String.make (width + 13) '-');
      List.iter (fun (name, v) -> Format.fprintf fmt "%-*s %12d@." width name v) nonzero
    end;
    (* name-major, then trial: every gauge's per-trial values read as one
       contiguous block, and the ordering is a pure function of the trace
       (never of hash-table iteration or collector construction order) *)
    let gauge_rows =
      List.concat_map
        (fun c ->
          List.map (fun (name, v) -> (Collector.trial c, name, v)) (Collector.gauges c))
        (collectors t)
      |> List.sort (fun (t1, n1, _) (t2, n2, _) ->
             match compare (n1 : string) n2 with 0 -> compare t1 t2 | c -> c)
    in
    if gauge_rows <> [] then begin
      Format.fprintf fmt "@.%-*s %8s %12s@." width "gauge" "trial" "value";
      Format.fprintf fmt "%s@." (String.make (width + 22) '-');
      List.iter
        (fun (trial, name, v) ->
          let tr = match trial with None -> "-" | Some k -> string_of_int k in
          Format.fprintf fmt "%-*s %8s %12.4g@." width name tr v)
        gauge_rows
    end;
    let hist_rows = histograms_total t in
    if hist_rows <> [] then begin
      Format.fprintf fmt "@.%-*s %8s %12s %9s %9s %9s %12s@." width "histogram" "n" "mean"
        "p50" "p90" "p99" "max";
      Format.fprintf fmt "%s@." (String.make (width + 66) '-');
      List.iter
        (fun (name, h) ->
          Format.fprintf fmt "%-*s %8d %12.4g %9.4g %9.4g %9.4g %12.4g@." width name
            (Hist.count h) (Hist.mean h) (Hist.percentile h 50.0) (Hist.percentile h 90.0)
            (Hist.percentile h 99.0) (Hist.max_value h))
        hist_rows
    end
end

(* ---- the flight recorder ----

   Recording is a property of the collector, so the recorder has no install
   point of its own: every hook reads the calling domain's collector (one
   atomic load when none is installed anywhere) and writes to its [flight]
   state.  The trial engine gives each per-trial child collector a flight
   state iff its parent has one, and the exports walk [Trace.collectors] in
   preorder — root first, then each trial in trial order — so the JSONL is
   byte-identical for any worker count.  Steps carry a wall-clock stamp
   used only by the Chrome export. *)

module Recorder = struct
  include Flight

  let bucket_name = function
    | No_bucket -> "none"
    | C2q -> "c2q"
    | Commute1 -> "commute1"
    | Commute2 -> "commute2"

  let recording () = match current () with None -> None | Some c -> c.Collector.flight
  let active () = recording () <> None

  let without f =
    match current () with
    | Some ({ Collector.flight = Some _ as fl; _ } as c) ->
        c.flight <- None;
        Fun.protect ~finally:(fun () -> c.flight <- fl) f
    | _ -> f ()

  let in_router name f =
    match recording () with
    | None -> f ()
    | Some r ->
        let prev = r.router in
        r.router <- name;
        Fun.protect ~finally:(fun () -> r.router <- prev) f

  (* ---- hooks ---- *)

  let note_bucket ~p1 ~p2 b =
    match recording () with
    | None -> ()
    | Some r -> r.scratch <- ((min p1 p2, max p1 p2), b) :: r.scratch

  let record_step ~front ?(forced = false) ~candidates ~chosen ~chosen_bonus () =
    match recording () with
    | None -> ()
    | Some r ->
        let bucket_for p1 p2 =
          match List.assoc_opt (min p1 p2, max p1 p2) r.scratch with
          | Some b -> b
          | None -> No_bucket
        in
        let cands =
          List.map (fun (c : cand) -> { cd = c; cd_bucket = bucket_for c.p1 c.p2 }) candidates
          |> List.sort (fun a b -> compare (a.cd.p1, a.cd.p2) (b.cd.p1, b.cd.p2))
        in
        let c1, c2 = chosen in
        let step =
          {
            st_seq = r.next_seq;
            st_router = r.router;
            st_front = front;
            st_forced = forced;
            st_candidates = cands;
            st_chosen = chosen;
            st_chosen_bonus = chosen_bonus;
            st_chosen_bucket = (if forced then No_bucket else bucket_for c1 c2);
            st_time = Unix.gettimeofday ();
          }
        in
        r.next_seq <- r.next_seq + 1;
        r.steps_rev <- step :: r.steps_rev;
        r.scratch <- []

  let record_result ~cx_routed ~cx_final =
    match recording () with
    | None -> ()
    | Some r -> r.summary <- Some { sm_cx_routed = cx_routed; sm_cx_final = cx_final }

  (* ---- aggregation ---- *)

  (* the recording collectors of [c]'s tree, in preorder *)
  let recorders c =
    List.filter_map
      (fun c -> Option.map (fun r -> (c, r)) c.Collector.flight)
      (Trace.collectors (Trace.of_root c))

  let steps_of r = List.rev r.steps_rev
  let steps c = List.concat_map (fun (_, r) -> steps_of r) (recorders c)

  type totals = {
    steps : int;
    candidates : int;
    forced : int;
    cand_c2q : int;
    cand_commute1 : int;
    cand_commute2 : int;
    chosen_c2q : int;
    chosen_commute1 : int;
    chosen_commute2 : int;
    predicted : float;
    cx_routed : int;
    cx_final : int;
    realized : int;
    trials_summarized : int;
  }

  let sum_totals rs =
    let z =
      {
        steps = 0;
        candidates = 0;
        forced = 0;
        cand_c2q = 0;
        cand_commute1 = 0;
        cand_commute2 = 0;
        chosen_c2q = 0;
        chosen_commute1 = 0;
        chosen_commute2 = 0;
        predicted = 0.0;
        cx_routed = 0;
        cx_final = 0;
        realized = 0;
        trials_summarized = 0;
      }
    in
    List.fold_left
      (fun acc r ->
        let acc =
          List.fold_left
            (fun acc s ->
              let cand_bucket acc c =
                match c.cd_bucket with
                | No_bucket -> acc
                | C2q -> { acc with cand_c2q = acc.cand_c2q + 1 }
                | Commute1 -> { acc with cand_commute1 = acc.cand_commute1 + 1 }
                | Commute2 -> { acc with cand_commute2 = acc.cand_commute2 + 1 }
              in
              let acc = List.fold_left cand_bucket acc s.st_candidates in
              let acc =
                match s.st_chosen_bucket with
                | No_bucket -> acc
                | C2q -> { acc with chosen_c2q = acc.chosen_c2q + 1 }
                | Commute1 -> { acc with chosen_commute1 = acc.chosen_commute1 + 1 }
                | Commute2 -> { acc with chosen_commute2 = acc.chosen_commute2 + 1 }
              in
              {
                acc with
                steps = acc.steps + 1;
                candidates = acc.candidates + List.length s.st_candidates;
                forced = (acc.forced + if s.st_forced then 1 else 0);
                predicted = acc.predicted +. s.st_chosen_bonus;
              })
            acc (steps_of r)
        in
        match r.summary with
        | None -> acc
        | Some sm ->
            {
              acc with
              cx_routed = acc.cx_routed + sm.sm_cx_routed;
              cx_final = acc.cx_final + sm.sm_cx_final;
              realized = acc.realized + (sm.sm_cx_routed - sm.sm_cx_final);
              trials_summarized = acc.trials_summarized + 1;
            })
      z rs

  let totals c = sum_totals (List.map snd (recorders c))

  (* ---- export ---- *)

  let schema_version = 1

  let to_jsonl c =
    let rs = recorders c in
    let buf = Buffer.create 4096 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
    line {|{"type":"recorder_meta","version":%d}|} schema_version;
    List.iter
      (fun (col, r) ->
        List.iter
          (fun s ->
            let cands =
              String.concat ","
                (List.map
                   (fun c ->
                     Printf.sprintf
                       {|{"swap":[%d,%d],"h_basic":%.9g,"h_lookahead":%.9g,"h":%.9g,"bonus":%.9g,"bucket":"%s"}|}
                       c.cd.p1 c.cd.p2 c.cd.h_basic c.cd.h_lookahead c.cd.h c.cd.bonus
                       (bucket_name c.cd_bucket))
                   s.st_candidates)
            in
            let c1, c2 = s.st_chosen in
            line
              {|{"type":"step","trial":%s,"seq":%d,"router":"%s","front":%d,"forced":%b,"chosen":[%d,%d],"chosen_bonus":%.9g,"chosen_bucket":"%s","candidates":[%s]}|}
              (Trace.trial_field col) s.st_seq (json_escape s.st_router) s.st_front
              s.st_forced c1 c2 s.st_chosen_bonus (bucket_name s.st_chosen_bucket) cands)
          (steps_of r))
      rs;
    List.iter
      (fun (c, r) ->
        match r.summary with
        | None -> ()
        | Some sm ->
            let tt = sum_totals [ r ] in
            line
              {|{"type":"trial_summary","trial":%s,"steps":%d,"predicted":%.9g,"cx_routed":%d,"cx_final":%d,"realized":%d}|}
              (Trace.trial_field c) tt.steps tt.predicted sm.sm_cx_routed sm.sm_cx_final
              (sm.sm_cx_routed - sm.sm_cx_final))
      rs;
    Buffer.contents buf

  (* Chrome trace_event JSON (load in Perfetto or about://tracing): each
     routing step is an instant event on its collector's track, with a
     "front" counter track showing front-layer size over time.  Timestamps
     are the recording wall clock, so unlike the JSONL this is
     nondeterministic. *)
  let to_chrome c =
    let rs = recorders c in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf {|{"traceEvents":[|};
    let first = ref true in
    let event fmt =
      Printf.ksprintf
        (fun s ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf s)
        fmt
    in
    let t0 =
      List.fold_left
        (fun acc (_, r) -> List.fold_left (fun acc s -> Float.min acc s.st_time) acc (steps_of r))
        infinity rs
    in
    let t0 = if t0 = infinity then 0.0 else t0 in
    List.iteri
      (fun tid (c, r) ->
        event {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"%s"}}|} tid
          (json_escape (Trace.track_name c));
        List.iter
          (fun s ->
            let ts = 1e6 *. (s.st_time -. t0) in
            let c1, c2 = s.st_chosen in
            event
              {|{"name":"%s","cat":"routing","ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d,"args":{"router":"%s","front":%d,"forced":%b,"chosen":"(%d,%d)","chosen_bonus":%.9g,"chosen_bucket":"%s","candidates":%d}}|}
              (if s.st_forced then "forced-swap" else "swap")
              ts tid (json_escape s.st_router) s.st_front s.st_forced c1 c2
              s.st_chosen_bonus (bucket_name s.st_chosen_bucket)
              (List.length s.st_candidates);
            event
              {|{"name":"front","cat":"routing","ph":"C","ts":%.3f,"pid":1,"tid":%d,"args":{"gates":%d}}|}
              ts tid s.st_front)
          (steps_of r))
      rs;
    Buffer.add_string buf "]}";
    Buffer.contents buf
end
