type t = {
  size : int;
  data : float array;  (* flat row-major; [||] for on-demand matrices *)
  rows : float array option array;  (* row cache, on-demand matrices only *)
  producer : (int -> float array) option;
  lock : Mutex.t;
}

let c_rows = Qobs.counter "distmat.rows_materialized"

let dense ~size data = { size; data; rows = [||]; producer = None; lock = Mutex.create () }

let n t = t.size
let is_dense t = Array.length t.data > 0 || t.size = 0

(* Same double-checked pattern as [Coupling.dist_row]: rows are immutable
   once published, the lock only serializes production. *)
let row t a =
  if a < 0 || a >= t.size then invalid_arg "Distmat.row: qubit out of range";
  match t.rows.(a) with
  | Some r -> r
  | None ->
      Mutex.lock t.lock;
      let r =
        match t.rows.(a) with
        | Some r -> r
        | None ->
            let produce =
              match t.producer with
              | Some f -> f
              | None -> assert false
            in
            let r = produce a in
            if Array.length r <> t.size then
              invalid_arg "Distmat: row producer returned wrong length";
            t.rows.(a) <- Some r;
            Qobs.incr c_rows;
            r
      in
      Mutex.unlock t.lock;
      r

let get t a b =
  if is_dense t then t.data.((a * t.size) + b) else (row t a).(b)

let raw t =
  if is_dense t then t.data
  else invalid_arg "Distmat.raw: on-demand matrix has no dense backing (use raw_opt/get)"

let raw_opt t = if is_dense t then Some t.data else None

let rows_materialized t =
  if is_dense t then t.size
  else Array.fold_left (fun acc r -> if r = None then acc else acc + 1) 0 t.rows

let hops coupling =
  let m = Coupling.distance_matrix coupling in
  let size = Coupling.n_qubits coupling in
  let data = Array.make (size * size) infinity in
  for a = 0 to size - 1 do
    for b = 0 to size - 1 do
      let v = m.(a).(b) in
      if v <> max_int then data.((a * size) + b) <- float_of_int v
    done
  done;
  dense ~size data

let lazy_rows ~n:size produce =
  if size <= 0 then invalid_arg "Distmat.lazy_rows: need at least one qubit";
  {
    size;
    data = [||];
    rows = Array.make size None;
    producer = Some produce;
    lock = Mutex.create ();
  }

let hops_lazy coupling =
  let size = Coupling.n_qubits coupling in
  lazy_rows ~n:size (fun a ->
      Array.map
        (fun v -> if v = max_int then infinity else float_of_int v)
        (Coupling.dist_row coupling a))

let of_flat ~n data =
  if Array.length data <> n * n then invalid_arg "Distmat.of_flat: length <> n*n";
  dense ~size:n data
