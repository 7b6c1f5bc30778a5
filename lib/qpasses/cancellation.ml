open Qgate

let is_z_rotation = function Gate.RZ _ | Gate.P _ | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg -> true | _ -> false

let z_angle = function
  | Gate.RZ a -> a
  | Gate.P a -> a
  | Gate.Z -> Float.pi
  | Gate.S -> Float.pi /. 2.0
  | Gate.Sdg -> -.Float.pi /. 2.0
  | Gate.T -> Float.pi /. 4.0
  | Gate.Tdg -> -.Float.pi /. 4.0
  | _ -> invalid_arg "Cancellation.z_angle"

let two_pi = 2.0 *. Float.pi

let c_cancelled = Qobs.counter "cancellation.gates_cancelled"
let c_merged = Qobs.counter "cancellation.z_rotations_merged"
let c_rounds = Qobs.counter "cancellation.rounds"

let norm a =
  let a = Float.rem a two_pi in
  if a > Float.pi then a -. two_pi else if a <= -.Float.pi then a +. two_pi else a

(* Groups keyed by int lists: a set id per operand, after the gate's tag
   for self-inverse gates.  Set ids are unique within the analysis and a
   set lies on one wire, so the ids also fix the wires and their order. *)
module Group = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h x -> (h * 65599) + x) 0
end)

let rec set_ids an op operand = function
  | [] -> []
  | _ :: rest -> Commutation.set_id an ~op ~operand :: set_ids an op (operand + 1) rest

(* One round over the candidate ops [cands]: ops are interchangeable
   (cancellable in pairs / angle mergeable) when they are the same gate on
   the same qubits and share a commute set on EVERY wire they touch.
   Removals and merges go through [an]; returns the number of ops removed.
   Groups are independent of one another, so the output does not depend on
   the order they are visited in. *)
let round an cands =
  let groups = Group.create 64 and zgroups = Group.create 64 in
  let add tbl k id =
    Group.replace tbl k (id :: Option.value ~default:[] (Group.find_opt tbl k))
  in
  List.iter
    (fun id ->
      let i = Commutation.instr an id in
      if Gate.is_self_inverse i.gate && not (Gate.is_directive i.gate) then
        add groups (Gate.tag i.gate :: set_ids an id 0 i.qubits) id
      else if is_z_rotation i.gate then add zgroups (set_ids an id 0 i.qubits) id)
    cands;
  let removed = ref 0 in
  let remove id =
    incr removed;
    Commutation.remove an id
  in
  (* self-inverse gates: cancel in pairs in circuit order, keeping the last
     one when the count is odd *)
  Group.iter
    (fun _ ids ->
      let ids = List.sort Int.compare ids in
      let k = List.length ids in
      List.iteri (fun pos id -> if pos < k - (k mod 2) then remove id) ids)
    groups;
  (* z rotations: merge angles into the last op of the group, summed in
     circuit order *)
  Group.iter
    (fun _ ids ->
      let ids = List.sort Int.compare ids in
      match List.rev ids with
      | last :: (_ :: _ as earlier_rev) ->
          Qobs.incr c_merged;
          let total =
            List.fold_left
              (fun acc id -> acc +. z_angle (Commutation.instr an id).Qcircuit.Circuit.gate)
              0.0 ids
          in
          List.iter remove earlier_rev;
          let total = norm total in
          if Float.abs total < 1e-10 then remove last
          else Commutation.rewrite an last (Gate.RZ total)
      | _ -> ())
    zgroups;
  Qobs.add c_cancelled !removed;
  !removed

let all_ops an = List.init (Commutation.n_ops an) Fun.id

let run c =
  let an = Commutation.analyze c in
  ignore (round an (all_ops an));
  Commutation.circuit an

(* A group with two or more members after a round must hold an op of a
   re-formed set, and then all its members sit in that set; so a round
   after the first only needs the ops [Commutation.rescan] re-grouped. *)
let run_fixpoint ?(max_rounds = 5) c =
  if max_rounds = 0 then c
  else begin
    let an = Commutation.analyze c in
    let rec go rounds_left cands =
      Qobs.incr c_rounds;
      if round an cands > 0 && rounds_left <> 1 then
        go (rounds_left - 1) (Commutation.rescan an)
    in
    go max_rounds (all_ops an);
    Commutation.circuit an
  end
