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

(* A group's kind: the gate's tag for a self-inverse gate, [z_kind] for a
   z rotation, and [no_kind] for an op that joins no group.  Tags are
   non-negative. *)
let z_kind = -1
let no_kind = -2

let kind (g : Gate.t) =
  if Gate.is_self_inverse g && not (Gate.is_directive g) then Gate.tag g
  else if is_z_rotation g then z_kind
  else no_kind

(* One round over the candidate ops [cands], in ascending op id: ops are
   interchangeable (cancellable in pairs / angle mergeable) when they are
   the same gate on the same qubits and share a commute set on EVERY wire
   they touch.  A group's key is its kind and the set id on each operand;
   set ids are unique within the analysis and a set lies on one wire, so
   the ids also fix the wires and their order.  The table is open
   addressing over candidate indices: a slot holds its group's latest
   member, which is also the representative for the exact key comparison,
   and [link] chains every member to the one before it, so a chain runs in
   descending op id.  Removals and merges go through [an]; returns the
   number of ops removed.  Groups are independent of one another, so the
   output does not depend on the order they are visited in. *)
let round an cands =
  let n = Array.length cands in
  let kind_of ci = kind (Commutation.instr an cands.(ci)).gate in
  let m = ref 0 in
  for ci = 0 to n - 1 do
    if kind_of ci <> no_kind then incr m
  done;
  let cap = ref 16 in
  while !cap < 2 * !m do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let slots = Array.make !cap (-1) and link = Array.make n (-1) in
  for ci = 0 to n - 1 do
    let k = kind_of ci in
    if k <> no_kind then begin
      let id = cands.(ci) in
      let h = (Commutation.sets_hash an id lxor k) * 0x27d4eb2f165667c5 in
      let s = ref ((h lxor (h lsr 31)) land mask) in
      while
        let g = slots.(!s) in
        g >= 0 && not (kind_of g = k && Commutation.same_sets an cands.(g) id)
      do
        s := (!s + 1) land mask
      done;
      link.(ci) <- slots.(!s);
      slots.(!s) <- ci
    end
  done;
  let removed = ref 0 in
  let remove id =
    incr removed;
    Commutation.remove an id
  in
  (* a z group's members in descending op id *)
  let members = ref (Array.make 16 0) in
  Array.iter
    (fun latest ->
      if latest >= 0 && link.(latest) >= 0 then
        if kind_of latest <> z_kind then begin
          (* self-inverse gates: cancel in pairs in circuit order, keeping
             the last one when the count is odd *)
          let size = ref 0 and ci = ref latest in
          while !ci >= 0 do
            incr size;
            ci := link.(!ci)
          done;
          let ci = ref (if !size mod 2 = 1 then link.(latest) else latest) in
          while !ci >= 0 do
            remove cands.(!ci);
            ci := link.(!ci)
          done
        end
        else begin
          (* z rotations: merge angles into the last op of the group, summed
             from 0.0 in circuit order *)
          Qobs.incr c_merged;
          let size = ref 0 and ci = ref latest in
          while !ci >= 0 do
            if !size = Array.length !members then begin
              let grown = Array.make (2 * !size) 0 in
              Array.blit !members 0 grown 0 !size;
              members := grown
            end;
            !members.(!size) <- cands.(!ci);
            incr size;
            ci := link.(!ci)
          done;
          let total = ref 0.0 in
          for j = !size - 1 downto 0 do
            total := !total +. z_angle (Commutation.instr an !members.(j)).gate;
            if j > 0 then remove !members.(j)
          done;
          let total = norm !total and last = cands.(latest) in
          if Float.abs total < 1e-10 then remove last
          else Commutation.rewrite an last (Gate.RZ total)
        end)
    slots;
  Qobs.add c_cancelled !removed;
  !removed

let all_ops an = Array.init (Commutation.n_ops an) Fun.id

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
    let an = Qobs.span "cancellation.analyze" (fun () -> Commutation.analyze c) in
    let rec go rounds_left cands =
      Qobs.incr c_rounds;
      if Qobs.span "cancellation.round" (fun () -> round an cands) > 0 && rounds_left <> 1 then
        go (rounds_left - 1) (Qobs.span "cancellation.rescan" (fun () -> Commutation.rescan an))
    in
    go max_rounds (all_ops an);
    Qobs.span "cancellation.emit" (fun () -> Commutation.circuit an)
  end
