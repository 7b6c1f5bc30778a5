(* The 64-bit state lives unboxed in bytes 0-7 and each draw's output in
   bytes 8-15, so a draw allocates nothing ([Int64] fields and results are
   boxed). *)
type t = Bytes.t

let of_state s =
  let t = Bytes.create 16 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* splitmix64: passes BigCrush, tiny state, trivially splittable.  Advances
   the state and stores the next output at byte 8. *)
let next t =
  let open Int64 in
  let z = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  Bytes.set_int64_ne t 8 (logxor z (shift_right_logical z 31))

let output t = Bytes.get_int64_ne t 8

let split t =
  next t;
  of_state (output t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the Int64 -> int conversion stays non-negative *)
  next t;
  let v = Int64.to_int (Int64.logand (output t) 0x3FFFFFFFFFFFFFFFL) in
  v mod bound

let float t bound =
  (* 53 high bits -> uniform double in [0,1). *)
  next t;
  let bits = Int64.shift_right_logical (output t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t =
  next t;
  Int64.logand (output t) 1L = 1L

let gaussian t =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-300 then draw () else u
  in
  let u1 = draw () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))
