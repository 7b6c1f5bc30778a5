(* Machine-speed calibration.

   On a shared machine the CPU's effective speed drifts by tens of percent
   over minutes (clock frequency, neighbours' load), and repetition does not
   remove a drift that outlasts a run.  So every timed unit of work is
   bracketed by runs of this fixed kernel, and its wall time is scaled by
   [reference_ms] over the mean of the two kernel times: milliseconds at the
   speed at which the kernel takes [reference_ms].  The kernel is the
   benchmark's own code and does the same kind of work as the compiler
   (allocation, hashing, float arithmetic), so no change to the library
   moves it.  Measured: over four minutes, scaled times of a fixed
   transpile job varied 0.6% (interquartile, as a share of the median)
   where raw wall times varied 6.4%. *)

let reference_ms = 10.0

let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0.0 and l = ref [] in
  for i = 1 to 120_000 do
    let k = i land 4095 in
    Hashtbl.replace h k (float_of_int i);
    l := (i, k) :: (if i land 255 = 0 then [] else !l);
    acc :=
      !acc +. sqrt (float_of_int i)
      +. match Hashtbl.find_opt h (k lxor 7) with Some v -> v | None -> 0.0
  done;
  ignore (Sys.opaque_identity (!acc, !l))

let time_kernel () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  (Unix.gettimeofday () -. t0) *. 1000.0

(* a job on [domains] worker domains runs as fast as the slower cores
   allow, so the kernel runs on as many domains at once; the mean of their
   times is the speed measured *)
let kernel_ms ~domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn time_kernel) in
  let mine = time_kernel () in
  let all = mine :: List.map Domain.join others in
  List.fold_left ( +. ) 0.0 all /. float_of_int domains

type t = { domains : int; mutable last_ms : float; mutable kernels : float list }

let create ~domains = { domains; last_ms = kernel_ms ~domains; kernels = [] }

(* [timed c f] runs [f], then the kernel; returns [f]'s result, its raw wall
   milliseconds and the speed factor (reference over the mean of the
   kernels run just before and just after it) *)
let timed c f =
  let t0 = Unix.gettimeofday () in
  let v = try Ok (f ()) with e -> Error e in
  let raw = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let k = kernel_ms ~domains:c.domains in
  let scale = reference_ms /. ((c.last_ms +. k) /. 2.0) in
  c.last_ms <- k;
  c.kernels <- k :: c.kernels;
  (v, raw, scale)
