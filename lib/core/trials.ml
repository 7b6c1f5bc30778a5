(* Parallel best-of-N trial engine.

   Qiskit runs SabreSwap as CPU_COUNT seeded trials and keeps the best; this
   module is that machinery for our routers, built on OCaml 5 domains.  The
   scheduling-independence invariant: every trial draws from its own RNG
   stream derived only from (base_seed, trial index), results land in a
   per-trial slot, and the winner is chosen by a deterministic total order —
   so the report is identical whatever the worker count or interleaving. *)

let seed_stride = 104729
let trial_seed ~base k = base + (k * seed_stride)

let default_workers () =
  (* recommended_domain_count counts the running domain; never go below 1 *)
  max 1 (Domain.recommended_domain_count ())

let map ?workers ~n f =
  if n < 0 then invalid_arg "Trials.map: n must be >= 0";
  let workers =
    match workers with
    | Some w when w < 1 -> invalid_arg "Trials.map: workers must be >= 1"
    | Some w -> min w (max 1 n)
    | None -> min (default_workers ()) (max 1 n)
  in
  let results = Array.make (max 1 n) None in
  let run k = results.(k) <- Some (try Ok (f k) with e -> Error e) in
  if workers <= 1 then
    for k = 0 to n - 1 do
      run k
    done
  else begin
    (* work-stealing over an atomic counter: no locks, so a raising trial
       can neither deadlock the pool nor leak a domain — every spawned
       domain drains the counter and is joined below *)
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < n then begin
          run k;
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned
  end;
  Array.init n (fun k ->
      match results.(k) with Some r -> r | None -> assert false)

type stat = {
  trial : int;
  seed : int;
  cx_total : int;
  depth : int;
  n_swaps : int;
  wall_time : float;
  error : string option;
}

type 'a report = {
  best : 'a;
  best_stat : stat;
  stats : stat list;
  wall_time : float;
  workers : int;
}

let better a b =
  if a.cx_total <> b.cx_total then a.cx_total < b.cx_total
  else if a.depth <> b.depth then a.depth < b.depth
  else a.trial < b.trial

let c_ok = Qobs.counter "trials.ok"
let c_failed = Qobs.counter "trials.failed"

(* live trial count across every pool in the process, for the Qtel resource
   sampler: a plain atomic the sampler domain polls, never part of a trace
   (it would differ between worker counts and break trace determinism) *)
let inflight_counter = Atomic.make 0
let inflight () = Atomic.get inflight_counter

let run ?workers ~n ~base_seed ~measure f =
  if n < 1 then invalid_arg "Trials.run: n must be >= 1";
  let workers =
    match workers with
    | Some w when w < 1 -> invalid_arg "Trials.run: workers must be >= 1"
    | Some w -> min w n
    | None -> min (default_workers ()) n
  in
  let wall0 = Unix.gettimeofday () in
  (* tracing: one collector per TRIAL (not per domain), created on whichever
     domain runs the trial and merged below on the joining domain in trial
     order — so the trace and the flight record are identical for any worker
     count.  A trial's collector records iff the caller's does. *)
  let parent = Qobs.current () in
  let record = Qobs.Recorder.active () in
  let collectors = Array.make n None in
  let outcomes =
    map ~workers ~n (fun k ->
        let seed = trial_seed ~base:base_seed k in
        let t0 = Unix.gettimeofday () in
        Atomic.incr inflight_counter;
        Fun.protect ~finally:(fun () -> Atomic.decr inflight_counter) @@ fun () ->
        let v =
          match parent with
          | None -> f ~trial:k ~seed
          | Some _ ->
              let c = Qobs.Collector.create ~trial:k ~label:"trial" ~record () in
              collectors.(k) <- Some c;
              Qobs.with_collector c (fun () -> f ~trial:k ~seed)
        in
        (v, Unix.gettimeofday () -. t0))
  in
  (match parent with
  | None -> ()
  | Some p ->
      Array.iter (Option.iter (Qobs.Collector.add_child p)) collectors;
      Array.iter
        (function Ok _ -> Qobs.incr c_ok | Error _ -> Qobs.incr c_failed)
        outcomes);
  let stats =
    Array.to_list
      (Array.mapi
         (fun k outcome ->
           let seed = trial_seed ~base:base_seed k in
           match outcome with
           | Ok (v, wall) ->
               let cx_total, depth, n_swaps = measure v in
               ( { trial = k; seed; cx_total; depth; n_swaps; wall_time = wall; error = None },
                 Some v )
           | Error e ->
               ( {
                   trial = k;
                   seed;
                   cx_total = max_int;
                   depth = max_int;
                   n_swaps = max_int;
                   wall_time = 0.0;
                   error = Some (Printexc.to_string e);
                 },
                 None ))
         outcomes)
  in
  let winner =
    List.fold_left
      (fun acc (stat, v) ->
        match (v, acc) with
        | None, _ -> acc
        | Some _, None -> Some (stat, v)
        | Some _, Some (best_stat, _) -> if better stat best_stat then Some (stat, v) else acc)
      None stats
  in
  match winner with
  | Some (best_stat, Some best) ->
      {
        best;
        best_stat;
        stats = List.map fst stats;
        wall_time = Unix.gettimeofday () -. wall0;
        workers;
      }
  | _ ->
      (* every trial failed: surface the first trial's exception so the
         caller sees the same error the single-shot path would raise *)
      let first_failure =
        Array.to_list outcomes
        |> List.find_map (function Error e -> Some e | Ok _ -> None)
      in
      raise (Option.get first_failure)
