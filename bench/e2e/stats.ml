(* Order statistics shared by the run, sweep and compare modes. *)

let sorted xs = List.sort Float.compare xs

(* Python's [statistics.quantiles(xs, n)] with the default "exclusive"
   method, so the spreads printed here are the ones an external checker
   computes from the same values. *)
let quantiles ~n xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quantiles: no data";
  if ld = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

let median xs =
  let a = Array.of_list (sorted xs) in
  let k = Array.length a in
  if k = 0 then invalid_arg "Stats.median: no data"
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* nearest-rank percentile over all samples *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let k = Array.length a in
  if k = 0 then invalid_arg "Stats.percentile: no data";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int k)) in
  a.(max 0 (min (k - 1) (rank - 1)))

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no data"
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* interquartile distance as a share of the median: the run-to-run spread a
   bound is judged against *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ -> (
      match quantiles ~n:4 xs with
      | [ q1; _; q3 ] ->
          let m = median xs in
          if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
      | _ -> assert false)
