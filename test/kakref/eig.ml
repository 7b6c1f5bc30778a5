(* A real n x n matrix is a row-major [Float.Array.t] of n*n entries:
   entry (i, j) is at index i*n + j.  Every loop performs the float
   operations of the [float array array] code it replaced, in the same
   order, so results are bit-identical to it. *)

let get = Float.Array.get
let set = Float.Array.set

let dim a =
  let len = Float.Array.length a in
  let n = Float.to_int (Float.round (sqrt (float_of_int len))) in
  if n * n <> len then invalid_arg "Eig: not a square matrix";
  n

let off_diagonal_norm a =
  let n = dim a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let x = get a ((i * n) + j) in
        acc := !acc +. (x *. x)
      end
    done
  done;
  sqrt !acc

(* One Jacobi rotation zeroing a(p,q), accumulating into v. *)
let rotate n a v p q =
  let apq = get a ((p * n) + q) in
  if Float.abs apq > 1e-300 then begin
    let app = get a ((p * n) + p) and aqq = get a ((q * n) + q) in
    let theta = (aqq -. app) /. (2.0 *. apq) in
    let t =
      let s = if theta >= 0.0 then 1.0 else -1.0 in
      s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
    in
    let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
    let s = t *. c in
    for k = 0 to n - 1 do
      let kp = (k * n) + p and kq = (k * n) + q in
      let akp = get a kp and akq = get a kq in
      set a kp ((c *. akp) -. (s *. akq));
      set a kq ((s *. akp) +. (c *. akq))
    done;
    for k = 0 to n - 1 do
      let pk = (p * n) + k and qk = (q * n) + k in
      let apk = get a pk and aqk = get a qk in
      set a pk ((c *. apk) -. (s *. aqk));
      set a qk ((s *. apk) +. (c *. aqk))
    done;
    for k = 0 to n - 1 do
      let kp = (k * n) + p and kq = (k * n) + q in
      let vkp = get v kp and vkq = get v kq in
      set v kp ((c *. vkp) -. (s *. vkq));
      set v kq ((s *. vkp) +. (c *. vkq))
    done
  end

let jacobi a0 =
  let n = dim a0 in
  let a = Float.Array.copy a0 in
  let v = Float.Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    set v ((i * n) + i) 1.0
  done;
  let max_sweeps = 100 in
  let rec sweep k =
    if k < max_sweeps && off_diagonal_norm a > 1e-13 then begin
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          rotate n a v p q
        done
      done;
      sweep (k + 1)
    end
  in
  sweep 0;
  let vals = Float.Array.create n in
  for i = 0 to n - 1 do
    set vals i (get a ((i * n) + i))
  done;
  (vals, v)

(* p^T m p for orthogonal p. *)
let conjugate_by n m p =
  let tmp = Float.Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (get m ((i * n) + k) *. get p ((k * n) + j))
      done;
      set tmp ((i * n) + j) !acc
    done
  done;
  let out = Float.Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (get p ((k * n) + i) *. get tmp ((k * n) + j))
      done;
      set out ((i * n) + j) !acc
    done
  done;
  out

let degenerate_blocks = Atomic.make 0

let simultaneous_diagonalize a b =
  let n = dim a in
  let vals, p = jacobi a in
  (* Group indices whose a-eigenvalues coincide; within each degenerate
     group, b (conjugated) is still symmetric and must be diagonalized. *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare (get vals i) (get vals j)) order;
  let result = Float.Array.create (n * n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      set result ((i * n) + j) (get p ((i * n) + order.(j)))
    done
  done;
  let b' = conjugate_by n b result in
  let tol = 1e-7 in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && Float.abs (get vals order.(!j) -. get vals order.(!i)) < tol do
      incr j
    done;
    let size = !j - !i in
    if size > 1 then begin
      Atomic.incr degenerate_blocks;
      (* diagonalize the (size x size) block of b' at offset !i *)
      let block = Float.Array.create (size * size) in
      for r = 0 to size - 1 do
        for c = 0 to size - 1 do
          set block ((r * size) + c) (get b' (((!i + r) * n) + !i + c))
        done
      done;
      let _, q = jacobi block in
      (* result columns [!i .. !j-1] <- result_cols * q *)
      let cols = Float.Array.create (n * size) in
      for r = 0 to n - 1 do
        for c = 0 to size - 1 do
          set cols ((r * size) + c) (get result ((r * n) + !i + c))
        done
      done;
      for r = 0 to n - 1 do
        for c = 0 to size - 1 do
          let acc = ref 0.0 in
          for k = 0 to size - 1 do
            acc := !acc +. (get cols ((r * size) + k) *. get q ((k * size) + c))
          done;
          set result ((r * n) + !i + c) !acc
        done
      done
    end;
    i := !j
  done;
  result
