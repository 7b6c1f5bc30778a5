(* Background resource sampler on its own domain.

   Concurrency: the sampler domain is the only writer; readers take the
   ring lock for a consistent snapshot.  The stop protocol is an atomic
   flag the domain polls between sleeps, so stop() joins within one
   interval.  Everything is bounded: one domain, one fixed-size ring. *)

type sample = {
  t_s : float;
  cpu_s : float;
  minor_words : float;
  major_words : float;
  heap_words : int;
  compactions : int;
  rss_kb : int;
  hwm_kb : int;
  inflight : int;
}

type t = {
  ring : sample option array;
  mutable next : int;  (** total samples ever taken; ring slot = next mod capacity *)
  lock : Mutex.t;
  stop_flag : bool Atomic.t;
  mutable domain : unit Domain.t option;
  t0 : float;
  baseline : sample;  (** the process state at start, for delta reporting *)
}

(* /proc/self/status is tiny and seq-read; parsing two lines per sample at
   10 ms cadence is noise.  Returns (rss_kb, hwm_kb), zeros without procfs. *)
let read_proc_status () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      let rss = ref 0 and hwm = ref 0 in
      (try
         while true do
           let line = input_line ic in
           let grab prefix cell =
             let pl = String.length prefix in
             if String.length line > pl && String.sub line 0 pl = prefix then
               (* "VmRSS:\t   12345 kB" -> 12345 *)
               let digits =
                 String.to_seq line
                 |> Seq.filter (fun c -> c >= '0' && c <= '9')
                 |> String.of_seq
               in
               match int_of_string_opt digits with Some v -> cell := v | None -> ()
           in
           grab "VmRSS:" rss;
           grab "VmHWM:" hwm
         done
       with End_of_file -> ());
      close_in ic;
      (!rss, !hwm)

let take t0 =
  let g = Gc.quick_stat () in
  let rss_kb, hwm_kb = read_proc_status () in
  {
    t_s = Unix.gettimeofday () -. t0;
    cpu_s = Sys.time ();
    minor_words = g.Gc.minor_words;
    major_words = g.Gc.major_words;
    heap_words = g.Gc.heap_words;
    compactions = g.Gc.compactions;
    rss_kb;
    hwm_kb;
    inflight = Qroute.Trials.inflight ();
  }

let push t s =
  Mutex.protect t.lock (fun () ->
      t.ring.(t.next mod Array.length t.ring) <- Some s;
      t.next <- t.next + 1)

let start ?(interval_ms = 10.0) ?(capacity = 4096) () =
  let t0 = Unix.gettimeofday () in
  let baseline = take t0 in
  let t =
    {
      ring = Array.make (max 1 capacity) None;
      next = 0;
      lock = Mutex.create ();
      stop_flag = Atomic.make false;
      domain = None;
      t0;
      baseline;
    }
  in
  push t baseline;
  let interval_s = Float.max 0.0005 (interval_ms /. 1000.0) in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get t.stop_flag) do
          Unix.sleepf interval_s;
          if not (Atomic.get t.stop_flag) then push t (take t.t0)
        done)
  in
  t.domain <- Some d;
  t

let stop t =
  match t.domain with
  | None -> ()
  | Some d ->
      Atomic.set t.stop_flag true;
      Domain.join d;
      t.domain <- None;
      push t (take t.t0)

let samples t =
  Mutex.protect t.lock (fun () ->
      let cap = Array.length t.ring in
      let n = min t.next cap in
      let first = t.next - n in
      List.init n (fun i ->
          match t.ring.((first + i) mod cap) with Some s -> s | None -> assert false))

let fold_samples f init t = List.fold_left f init (samples t)

let peak_rss_kb t =
  fold_samples (fun acc s -> max acc (max s.rss_kb s.hwm_kb)) 0 t

let max_inflight t = fold_samples (fun acc s -> max acc s.inflight) 0 t

let last_sample t =
  match List.rev (samples t) with [] -> t.baseline | s :: _ -> s

(* gauge identities interned once, like every other instrumented module *)
let g_samples = Qobs.gauge "qtel.samples"
let g_wall = Qobs.gauge "qtel.sampled_wall_s"
let g_cpu = Qobs.gauge "qtel.cpu_s"
let g_peak_rss = Qobs.gauge "qtel.peak_rss_kb"
let g_last_rss = Qobs.gauge "qtel.last_rss_kb"
let g_minor = Qobs.gauge "qtel.gc_minor_words"
let g_major = Qobs.gauge "qtel.gc_major_words"
let g_heap = Qobs.gauge "qtel.gc_heap_words_max"
let g_compactions = Qobs.gauge "qtel.gc_compactions"
let g_inflight = Qobs.gauge "qtel.pool_inflight_max"
let h_rss = Qobs.histogram "qtel.sample.rss_kb"

let attach t collector =
  let ss = samples t in
  let last = last_sample t in
  let base = t.baseline in
  Qobs.with_collector collector (fun () ->
      Qobs.gauge_set g_samples (float_of_int (List.length ss));
      Qobs.gauge_set g_wall last.t_s;
      Qobs.gauge_set g_cpu (last.cpu_s -. base.cpu_s);
      Qobs.gauge_set g_peak_rss (float_of_int (peak_rss_kb t));
      Qobs.gauge_set g_last_rss (float_of_int last.rss_kb);
      Qobs.gauge_set g_minor (last.minor_words -. base.minor_words);
      Qobs.gauge_set g_major (last.major_words -. base.major_words);
      Qobs.gauge_set g_heap
        (float_of_int (List.fold_left (fun acc s -> max acc s.heap_words) 0 ss));
      Qobs.gauge_set g_compactions (float_of_int (last.compactions - base.compactions));
      Qobs.gauge_set g_inflight (float_of_int (max_inflight t));
      List.iter (fun s -> Qobs.observe h_rss (float_of_int s.rss_kb)) ss)

let pp_summary fmt t =
  let ss = samples t in
  let last = last_sample t in
  let base = t.baseline in
  Format.fprintf fmt
    "sampler: %d samples over %.3f s | peak RSS %.1f MB | GC minor %.3g words, major \
     %.3g words, %d compactions | pool inflight max %d@."
    (List.length ss) last.t_s
    (float_of_int (peak_rss_kb t) /. 1024.0)
    (last.minor_words -. base.minor_words)
    (last.major_words -. base.major_words)
    (last.compactions - base.compactions)
    (max_inflight t)
