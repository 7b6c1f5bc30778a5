open Qgate

type instr = { gate : Gate.t; qubits : int list }
type t = { n : int; instrs : instr list }

let rec mem_qubit (q : int) = function [] -> false | x :: rest -> x = q || mem_qubit q rest
let rec has_repeat = function [] -> false | q :: rest -> mem_qubit q rest || has_repeat rest

let rec check_range n = function
  | [] -> ()
  | q :: rest ->
      if q < 0 || q >= n then
        invalid_arg
          (Printf.sprintf "Circuit: qubit index %d out of range for %d-qubit circuit" q n);
      check_range n rest

(* allocates nothing unless it raises: operand lists are short, so the
   repeated-qubit test compares pairs instead of sorting *)
let check_instr n { gate; qubits } =
  let k = List.length qubits in
  if k <> Gate.arity gate then
    invalid_arg
      (Printf.sprintf "Circuit: gate %s expects %d qubits, got %d" (Gate.name gate)
         (Gate.arity gate) k);
  check_range n qubits;
  if has_repeat qubits then
    invalid_arg
      (Printf.sprintf "Circuit: repeated qubit in %s %s" (Gate.name gate)
         (String.concat "," (List.map string_of_int qubits)))

let create n instrs =
  if n < 0 then
    invalid_arg (Printf.sprintf "Circuit.create: negative qubit count %d" n);
  List.iter (check_instr n) instrs;
  { n; instrs }

let empty n = create n []
let n_qubits c = c.n
let instrs c = c.instrs

let is_barrier i = match i.gate with Gate.Barrier _ -> true | _ -> false

let size c = List.length (List.filter (fun i -> not (is_barrier i)) c.instrs)

let append c gate qubits =
  let i = { gate; qubits } in
  check_instr c.n i;
  { c with instrs = c.instrs @ [ i ] }

let concat a b =
  if a.n <> b.n then
    invalid_arg
      (Printf.sprintf "Circuit.concat: qubit-count mismatch (%d vs %d)" a.n b.n);
  { a with instrs = a.instrs @ b.instrs }

let inverse c =
  let keep i = match i.gate with Gate.Measure -> false | _ -> true in
  let inv i = { i with gate = Gate.inverse i.gate } in
  { c with instrs = List.rev_map inv (List.filter keep c.instrs) }

let remap c perm =
  if Array.length perm <> c.n then
    invalid_arg
      (Printf.sprintf "Circuit.remap: permutation size %d does not match %d qubits"
         (Array.length perm) c.n);
  let f i = { i with qubits = List.map (fun q -> perm.(q)) i.qubits } in
  { c with instrs = List.map f c.instrs }

let lift c ~n ~map =
  if Array.length map <> c.n then
    invalid_arg
      (Printf.sprintf "Circuit.lift: map size %d does not match %d qubits"
         (Array.length map) c.n);
  let seen = Array.make (max n 1) false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n then
        invalid_arg (Printf.sprintf "Circuit.lift: wire %d out of range for %d" p n);
      if seen.(p) then
        invalid_arg (Printf.sprintf "Circuit.lift: map repeats wire %d" p);
      seen.(p) <- true)
    map;
  let f i = { i with qubits = List.map (fun q -> map.(q)) i.qubits } in
  { n; instrs = List.map f c.instrs }

let drop_measures c =
  { c with instrs = List.filter (fun i -> i.gate <> Gate.Measure) c.instrs }

let gate_count c name_ =
  List.length (List.filter (fun i -> Gate.name i.gate = name_) c.instrs)

let cx_count c = gate_count c "cx"

let two_qubit_count c =
  List.length (List.filter (fun i -> Gate.is_two_qubit i.gate) c.instrs)

let depth c =
  let level = Array.make (max c.n 1) 0 in
  let out = ref 0 in
  let visit i =
    if not (is_barrier i) then begin
      let d = 1 + List.fold_left (fun acc q -> max acc level.(q)) 0 i.qubits in
      List.iter (fun q -> level.(q) <- d) i.qubits;
      if d > !out then out := d
    end
  in
  List.iter visit c.instrs;
  !out

let embed ~n g qs =
  let open Mathkit in
  let k = List.length qs in
  let dim = 1 lsl n in
  if Mat.rows g <> 1 lsl k then invalid_arg "Circuit.embed: matrix size mismatch";
  let qs = Array.of_list qs in
  (* bit of qubit q within a full index (qubit 0 = most significant) *)
  let bit x q = (x lsr (n - 1 - q)) land 1 in
  (* index into g of every full index: the bits of qs, first qubit most
     significant *)
  let local = Array.init dim (fun x -> Array.fold_left (fun acc q -> (acc lsl 1) lor bit x q) 0 qs) in
  let rest_mask =
    let m = ref 0 in
    for q = 0 to n - 1 do
      if not (Array.exists (( = ) q) qs) then m := !m lor (1 lsl (n - 1 - q))
    done;
    !m
  in
  let gc = Mat.cols g in
  Mat.gather dim dim
    (fun i j -> if i land rest_mask <> j land rest_mask then -1 else (local.(i) * gc) + local.(j))
    g

let unitary c =
  let open Mathkit in
  if c.n > 12 then invalid_arg "Circuit.unitary: too many qubits";
  let acc = ref (Mat.identity (1 lsl c.n)) in
  let visit i =
    match i.gate with
    | Gate.Barrier _ | Gate.Measure -> ()
    | g -> acc := Mat.mul (embed ~n:c.n (Unitary.of_gate g) i.qubits) !acc
  in
  List.iter visit c.instrs;
  !acc

let equal a b =
  a.n = b.n
  && List.length a.instrs = List.length b.instrs
  && List.for_all2
       (fun x y -> Gate.equal x.gate y.gate && x.qubits = y.qubits)
       a.instrs b.instrs

let bit_equal a b =
  let bits g =
    let buf = Buffer.create 16 in
    Gate.add_signature buf g;
    Buffer.contents buf
  in
  a.n = b.n
  && List.equal (fun x y -> x.qubits = y.qubits && bits x.gate = bits y.gate) a.instrs b.instrs

let pp ppf c =
  Format.fprintf ppf "@[<v>circuit %d qubits, %d ops@," c.n (List.length c.instrs);
  List.iter
    (fun i ->
      Format.fprintf ppf "  %a %s@," Gate.pp i.gate
        (String.concat "," (List.map string_of_int i.qubits)))
    c.instrs;
  Format.fprintf ppf "@]"

module Builder = struct
  type circuit = t
  type nonrec t = { bn : int; mutable rev : instr list }

  let create n = { bn = n; rev = [] }

  let add b gate qubits =
    let i = { gate; qubits } in
    check_instr b.bn i;
    b.rev <- i :: b.rev

  let add_instr b i =
    check_instr b.bn i;
    b.rev <- i :: b.rev

  let circuit b : circuit = { n = b.bn; instrs = List.rev b.rev }
  let n_qubits b = b.bn
end
