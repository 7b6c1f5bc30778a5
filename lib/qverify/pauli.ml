type t = { ph : int; bits : Bytes.t }

let n_wires p = Bytes.length p.bits
let phase p = p.ph
let code p w = Char.code (Bytes.get p.bits w)
let identity n = { ph = 0; bits = Bytes.make n '\000' }

let check_code c =
  if c < 0 || c > 3 then invalid_arg (Printf.sprintf "Pauli: bad code %d" c)

let single ~n w c =
  check_code c;
  if c = 0 then invalid_arg "Pauli.single: identity code";
  let bits = Bytes.make n '\000' in
  Bytes.set bits w (Char.chr c);
  { ph = 0; bits }

let of_codes ~n ?(phase = 0) codes =
  let bits = Bytes.make n '\000' in
  List.iter
    (fun (w, c) ->
      check_code c;
      if w < 0 || w >= n then invalid_arg "Pauli.of_codes: wire out of range";
      Bytes.set bits w (Char.chr c))
    codes;
  { ph = phase land 3; bits }

let with_phase p k = { p with ph = k land 3 }
let mul_phase p k = { p with ph = (p.ph + k) land 3 }
let neg p = mul_phase p 2

(* i-power contributed by the per-wire product sigma_a * sigma_b, indexed
   a*4+b with codes 0=I 1=X 2=Z 3=Y: X*Z = -iY, Z*X = iY, X*Y = iZ,
   Y*X = -iZ, Z*Y = -iX, Y*Z = iX, squares and identities phase-free *)
let phase_table =
  [| 0; 0; 0; 0; 0; 0; 3; 1; 0; 1; 0; 3; 0; 3; 1; 0 |]

let mul a b =
  let n = Bytes.length a.bits in
  if Bytes.length b.bits <> n then invalid_arg "Pauli.mul: wire-count mismatch";
  let bits = Bytes.create n in
  let ph = ref (a.ph + b.ph) in
  for w = 0 to n - 1 do
    let ca = Char.code (Bytes.unsafe_get a.bits w)
    and cb = Char.code (Bytes.unsafe_get b.bits w) in
    ph := !ph + Array.unsafe_get phase_table ((ca lsl 2) lor cb);
    Bytes.unsafe_set bits w (Char.unsafe_chr (ca lxor cb))
  done;
  { ph = !ph land 3; bits }

let commutes a b =
  let n = Bytes.length a.bits in
  if Bytes.length b.bits <> n then invalid_arg "Pauli.commutes: wire-count mismatch";
  let anti = ref 0 in
  for w = 0 to n - 1 do
    let ca = Char.code (Bytes.unsafe_get a.bits w)
    and cb = Char.code (Bytes.unsafe_get b.bits w) in
    if ca <> 0 && cb <> 0 && ca <> cb then incr anti
  done;
  !anti land 1 = 0

let same_string a b = Bytes.equal a.bits b.bits
let equal a b = a.ph = b.ph && Bytes.equal a.bits b.bits

let is_identity_string p =
  let n = Bytes.length p.bits in
  let rec go w = w >= n || (Bytes.get p.bits w = '\000' && go (w + 1)) in
  go 0

let support p =
  let acc = ref [] in
  for w = n_wires p - 1 downto 0 do
    if code p w <> 0 then acc := w :: !acc
  done;
  !acc

let weight p = List.length (support p)

let to_string p =
  let prefix = match p.ph with 0 -> "+" | 1 -> "+i" | 2 -> "-" | _ -> "-i" in
  let letter = function 0 -> 'I' | 1 -> 'X' | 2 -> 'Z' | _ -> 'Y' in
  prefix ^ String.init (n_wires p) (fun w -> letter (code p w))
