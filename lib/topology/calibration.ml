open Mathkit

type t = {
  coupling : Coupling.t;
  cx_err : (int * int, float) Hashtbl.t;
  cx_t : (int * int, float) Hashtbl.t;
  ro_err : float array;
  sq_err : float array;
}

let key a b = (min a b, max a b)

let generate ?(seed = 2022) coupling =
  let rng = Rng.create seed in
  let cx_err = Hashtbl.create 64 and cx_t = Hashtbl.create 64 in
  List.iter
    (fun (a, b) ->
      (* lognormal-ish spread inside the published montreal band *)
      let e = 0.005 +. (Rng.float rng 1.0 ** 2.0 *. 0.02) in
      let tm = 250e-9 +. Rng.float rng 300e-9 in
      Hashtbl.replace cx_err (key a b) e;
      Hashtbl.replace cx_t (key a b) tm)
    (Coupling.edges coupling);
  let n = Coupling.n_qubits coupling in
  let ro_err = Array.init n (fun _ -> 0.01 +. Rng.float rng 0.03) in
  let sq_err = Array.init n (fun _ -> 2e-4 +. Rng.float rng 3e-4) in
  { coupling; cx_err; cx_t; ro_err; sq_err }

let create ~coupling ~cx_error ?(cx_time = fun _ _ -> 400e-9) ?(readout_error = fun _ -> 0.0)
    ?(sq_error = fun _ -> 0.0) () =
  let cx_err = Hashtbl.create 64 and cx_t = Hashtbl.create 64 in
  List.iter
    (fun (a, b) ->
      Hashtbl.replace cx_err (key a b) (cx_error a b);
      Hashtbl.replace cx_t (key a b) (cx_time a b))
    (Coupling.edges coupling);
  let n = Coupling.n_qubits coupling in
  {
    coupling;
    cx_err;
    cx_t;
    ro_err = Array.init n readout_error;
    sq_err = Array.init n sq_error;
  }

let lookup tbl a b what =
  match Hashtbl.find_opt tbl (key a b) with
  | Some v -> v
  | None -> invalid_arg ("Calibration." ^ what ^ ": qubits not coupled")

let cx_error t a b = lookup t.cx_err a b "cx_error"
let cx_time t a b = lookup t.cx_t a b "cx_time"
let readout_error t q = t.ro_err.(q)
let sq_error t q = t.sq_err.(q)
let coupling t = t.coupling

let noise_distmat ?(alpha1 = 0.5) ?(alpha2 = 0.0) ?(alpha3 = 0.5) t =
  let n = Coupling.n_qubits t.coupling in
  let edges = Coupling.edges t.coupling in
  let max_err = List.fold_left (fun m (a, b) -> Float.max m (cx_error t a b)) 1e-12 edges in
  let max_t = List.fold_left (fun m (a, b) -> Float.max m (cx_time t a b)) 1e-12 edges in
  let weight a b =
    (alpha1 *. (cx_error t a b /. max_err))
    +. (alpha2 *. (cx_time t a b /. max_t))
    +. (alpha3 *. 1.0)
  in
  (* all-pairs Dijkstra straight into flat row-major storage; graphs are
     tiny (<= dozens of qubits) *)
  let flat = Array.make (n * n) infinity in
  for src = 0 to n - 1 do
    let row = src * n in
    flat.(row + src) <- 0.0;
    let visited = Array.make n false in
    let rec loop () =
      let u = ref (-1) in
      for v = 0 to n - 1 do
        if
          (not visited.(v))
          && flat.(row + v) < infinity
          && (!u = -1 || flat.(row + v) < flat.(row + !u))
        then u := v
      done;
      if !u >= 0 then begin
        visited.(!u) <- true;
        List.iter
          (fun v ->
            let w = flat.(row + !u) +. weight !u v in
            if w < flat.(row + v) then flat.(row + v) <- w)
          (Coupling.neighbors t.coupling !u);
        loop ()
      end
    in
    loop ()
  done;
  Distmat.of_flat ~n flat
