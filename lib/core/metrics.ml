let delta nassc sabre = if sabre = 0.0 then 0.0 else 1.0 -. (nassc /. sabre)

(* Deltas are 1 - ratio; the paper's geometric mean averages the ratios,
   so the aggregate delta is 1 - geomean(1 - x). *)
let geometric_mean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let n = float_of_int (List.length xs) in
      let log_sum =
        List.fold_left (fun acc x -> acc +. log (Float.max 1e-9 (1.0 -. x))) 0.0 xs
      in
      1.0 -. exp (log_sum /. n)
