open Mathkit
open Qgate

(* cache of pairwise commutation results, keyed by gate pair + qubit overlap
   pattern.  One cache per domain (DLS), so the trials engine's parallel
   optimization passes never contend on a lock; entries are pure functions
   of the key, so a cold cache costs only recomputes.  [reset_cache] empties
   the calling domain's cache — the trial engine calls it at the start of
   every traced trial so cache hit/miss counters are a pure function of the
   trial's own work (deterministic across worker counts). *)
let cache_key : (string, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let reset_cache () = Hashtbl.reset (Domain.DLS.get cache_key)

let c_lookups = Qobs.counter "commutation.cache_lookups"
let c_hits = Qobs.counter "commutation.cache_hits"
let c_misses = Qobs.counter "commutation.cache_misses"
let c_uncached = Qobs.counter "commutation.uncached_evals"

(* cache key: exact binary gate signatures (Gate.add_signature — injective,
   no Format round-trips on the hot path) plus the relative qubit layout of
   the two operand lists *)
let key (g1, qs1) (g2, qs2) =
  let all = List.sort_uniq compare (qs1 @ qs2) in
  let buf = Buffer.create 32 in
  let rel qs =
    List.iter
      (fun q ->
        Buffer.add_char buf
          (Char.chr (Option.get (List.find_index (( = ) q) all))))
      qs;
    Buffer.add_char buf '\255'
  in
  Gate.add_signature buf g1;
  rel qs1;
  Gate.add_signature buf g2;
  rel qs2;
  Buffer.contents buf

let compute_commute (g1, qs1) (g2, qs2) =
  let all = List.sort_uniq compare (qs1 @ qs2) in
  let n = List.length all in
  let local qs = List.map (fun q -> Option.get (List.find_index (( = ) q) all)) qs in
  let u1 = Qcircuit.Circuit.embed ~n (Unitary.of_gate g1) (local qs1) in
  let u2 = Qcircuit.Circuit.embed ~n (Unitary.of_gate g2) (local qs2) in
  Mat.frobenius_distance (Mat.mul u1 u2) (Mat.mul u2 u1) < 1e-9

let commute (g1, qs1) (g2, qs2) =
  if Gate.is_directive g1 || Gate.is_directive g2 then false
  else if not (List.exists (fun q -> List.mem q qs2) qs1) then true
  else
    match ((g1 : Gate.t), (g2 : Gate.t)) with
    | Gate.Unitary2 _, _ | _, Gate.Unitary2 _ ->
        Qobs.incr c_uncached;
        compute_commute (g1, qs1) (g2, qs2)
    | _ ->
        let k = key (g1, qs1) (g2, qs2) in
        let cache = Domain.DLS.get cache_key in
        Qobs.incr c_lookups;
        (match Hashtbl.find_opt cache k with
        | Some v ->
            Qobs.incr c_hits;
            v
        | None ->
            Qobs.incr c_misses;
            let v = compute_commute (g1, qs1) (g2, qs2) in
            Hashtbl.replace cache k v;
            v)

type t = {
  wire_sets : int list list array;  (* per wire: sets in order, ops in order *)
  index : (int * int, int) Hashtbl.t;  (* (wire, op) -> set index *)
}

let analyze c =
  let n = Qcircuit.Circuit.n_qubits c in
  let instrs = Array.of_list (Qcircuit.Circuit.instrs c) in
  let wire_sets = Array.make (max n 1) [] in
  let index = Hashtbl.create 64 in
  (* per-wire op ids in circuit order, bucketed in one reverse pass *)
  let ops_on = Array.make (max n 1) [] in
  for id = Array.length instrs - 1 downto 0 do
    List.iter (fun q -> ops_on.(q) <- id :: ops_on.(q)) instrs.(id).Qcircuit.Circuit.qubits
  done;
  for q = 0 to n - 1 do
    (* group consecutive ops: a new op joins the current set iff it commutes
       with every member *)
    let sets = ref [] and current = ref [] in
    let close () =
      if !current <> [] then begin
        sets := List.rev !current :: !sets;
        current := []
      end
    in
    List.iter
      (fun id ->
        let i = instrs.(id) in
        let as_pair (x : Qcircuit.Circuit.instr) = (x.gate, x.qubits) in
        if Gate.is_directive i.gate then begin
          close ();
          current := [ id ];
          close ()
        end
        else if List.for_all (fun m -> commute (as_pair instrs.(m)) (as_pair i)) !current
        then current := id :: !current
        else begin
          close ();
          current := [ id ]
        end)
      ops_on.(q);
    close ();
    let in_order = List.rev !sets in
    wire_sets.(q) <- in_order;
    List.iteri (fun si set -> List.iter (fun id -> Hashtbl.replace index (q, id) si) set) in_order
  done;
  { wire_sets; index }

let sets_on_wire t q = t.wire_sets.(q)

let set_index t ~wire ~op =
  match Hashtbl.find_opt t.index (wire, op) with
  | Some v -> v
  | None -> raise Not_found
