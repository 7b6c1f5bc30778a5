type prop =
  | Lowered_2q
  | Routed_for
  | Hardware_basis
  | Size_preserving
  | Semantics_preserved

let prop_name = function
  | Lowered_2q -> "Lowered_2q"
  | Routed_for -> "Routed_for"
  | Hardware_basis -> "Hardware_basis"
  | Size_preserving -> "Size_preserving"
  | Semantics_preserved -> "Semantics_preserved"

type t = {
  cname : string;
  requires : prop list;
  ensures : prop list;
  invalidates : prop list;
  conflicts : prop list;
}

let c name ?(requires = []) ?(ensures = []) ?(invalidates = []) ?(conflicts = []) () =
  { cname = name; requires; ensures; invalidates; conflicts }

(* The registry.  Rationale for the non-obvious entries:
   - [cancellation] and [unitary_synthesis] require [Lowered_2q]: commute
     sets and 2q-block collection assume the {1q, 2q} shape the paper's
     Figure 5 establishes before any optimization runs.
   - [route] conflicts with [Hardware_basis]: emission is the final
     lowering step, so routing an already-emitted circuit is an ordering
     bug, not a semantics bug (the paper's pipeline routes first).
   - [optimize_1q.u] invalidates [Hardware_basis] (it re-emits runs as [U]
     gates); the [.zsx] variant stays inside {rz, sx, x}. *)
let all =
  [
    c "lower_to_2q" ~ensures:[ Lowered_2q; Semantics_preserved ]
      ~invalidates:[ Hardware_basis ] ();
    c "peephole" ~ensures:[ Size_preserving; Semantics_preserved ] ();
    c "optimize_1q.u"
      ~ensures:[ Size_preserving; Semantics_preserved ]
      ~invalidates:[ Hardware_basis ] ();
    c "optimize_1q.zsx" ~ensures:[ Size_preserving; Semantics_preserved ] ();
    c "cancellation" ~requires:[ Lowered_2q ]
      ~ensures:[ Size_preserving; Semantics_preserved ]
      ();
    c "unitary_synthesis" ~requires:[ Lowered_2q ]
      ~ensures:[ Size_preserving; Semantics_preserved ]
      ();
    c "route" ~requires:[ Lowered_2q ] ~ensures:[ Routed_for ]
      ~invalidates:[ Size_preserving; Semantics_preserved ]
      ~conflicts:[ Hardware_basis ] ();
    c "basis" ~requires:[ Lowered_2q ]
      ~ensures:[ Hardware_basis; Size_preserving; Semantics_preserved ]
      ();
  ]

let mem p set = List.memq p set

let step name state =
  let loc = Diagnostic.Stage name in
  match List.find_opt (fun ct -> ct.cname = name) all with
  | None ->
      ( state,
        [
          Diagnostic.errorf ~loc ~rule:"contract.unknown-pass"
            "unknown pass %S: no contract registered" name;
        ] )
  | Some ct ->
      let unmet = List.filter (fun p -> not (mem p state)) ct.requires
      and conflicting = List.filter (fun p -> mem p state) ct.conflicts in
      let diags =
        List.map
          (fun p ->
            Diagnostic.errorf ~loc ~rule:"contract.requires"
              "pass %s requires %s, which no earlier stage establishes" name (prop_name p))
          unmet
        @ List.map
            (fun p ->
              Diagnostic.errorf ~loc ~rule:"contract.conflict"
                "pass %s must run before %s is established (illegal ordering)" name
                (prop_name p))
            conflicting
      in
      let state = List.filter (fun p -> not (mem p ct.invalidates)) state in
      (List.fold_left (fun s p -> if mem p s then s else p :: s) state ct.ensures, diags)

let validate ?(initial = []) ?(goal = []) names =
  let state, diags = List.fold_left_map (fun state name -> step name state) initial names in
  List.concat diags
  @ List.map
      (fun p ->
        Diagnostic.errorf ~rule:"contract.goal" "pipeline ends without establishing %s"
          (prop_name p))
      (List.filter (fun p -> not (mem p state)) goal)
