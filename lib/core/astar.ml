open Qgate
open Topology

type params = { seed : int; max_expansions : int }

let default_params = { seed = 11; max_expansions = 4000 }

let layers c =
  let rev_layers = ref [] in
  let current = ref [] in
  let used = Hashtbl.create 16 in
  let flush () =
    if !current <> [] then begin
      rev_layers := List.rev !current :: !rev_layers;
      current := [];
      Hashtbl.clear used
    end
  in
  List.iter
    (fun (i : Qcircuit.Circuit.instr) ->
      if List.exists (Hashtbl.mem used) i.qubits then flush ();
      current := i :: !current;
      List.iter (fun q -> Hashtbl.replace used q ()) i.qubits)
    (Qcircuit.Circuit.instrs c);
  flush ();
  List.rev !rev_layers

(* search state for one layer *)
type state = { l2p : int array; swaps_rev : (int * int) list; g : int }

let c_expansions = Qobs.counter "astar.node_expansions"
let c_fallbacks = Qobs.counter "astar.budget_fallbacks"
let c_layers = Qobs.counter "astar.layers_solved"

let encode_mapping l2p =
  String.concat "," (Array.to_list (Array.map string_of_int l2p))

let route ?(params = default_params) coupling circuit =
  Qobs.span "astar.route" @@ fun () ->
  Qobs.Recorder.in_router "astar" @@ fun () ->
  let n_phys = Coupling.n_qubits coupling in
  let n_log = Qcircuit.Circuit.n_qubits circuit in
  if n_log > n_phys then invalid_arg "Astar.route: circuit larger than device";
  List.iter
    (fun (i : Qcircuit.Circuit.instr) ->
      if Gate.arity i.gate > 2 && not (Gate.is_directive i.gate) then
        invalid_arg "Astar.route: lower gates to <=2 qubits before routing")
    (Qcircuit.Circuit.instrs circuit);
  let dist = Distmat.hops coupling in
  let d = Distmat.raw dist and dn = Distmat.n dist in
  let rng = Mathkit.Rng.create params.seed in
  let perm = Mathkit.Rng.permutation rng n_phys in
  let l2p = Array.init n_log (fun l -> perm.(l)) in
  let initial_layout = Array.copy l2p in
  let out = ref [] in
  let n_swaps = ref 0 in
  let emit gate qubits = out := { Qcircuit.Circuit.gate; qubits } :: !out in
  (* hop counts are exact small integers in float, so the A* f-ordering and
     the = 0.0 goal tests behave exactly as the integer matrix did *)
  let heuristic l2p pairs =
    List.fold_left
      (fun acc (a, b) -> acc +. (d.((l2p.(a) * dn) + l2p.(b)) -. 1.0))
      0.0 pairs
  in
  let apply_swap_arr l2p (p1, p2) =
    (* exchange whichever logical qubits live on p1/p2 *)
    Array.iteri
      (fun l p -> if p = p1 then l2p.(l) <- p2 else if p = p2 then l2p.(l) <- p1)
      l2p
  in
  (* the edges touching a mapped qubit of [pairs], in the order a
     [Hashtbl.create 16] would fold them (see [Engine.Candidates]) *)
  let cands = Engine.Candidates.create ~initial_buckets:16 coupling in
  let candidate_swaps l2p pairs =
    Engine.Candidates.clear cands;
    List.iter
      (fun (a, b) ->
        Engine.Candidates.add cands l2p.(a);
        Engine.Candidates.add cands l2p.(b))
      pairs;
    List.init (Engine.Candidates.order cands) (fun i ->
        (Engine.Candidates.p1 cands i, Engine.Candidates.p2 cands i))
  in
  let solve_layer pairs =
    (* returns the swap list (in order) making every pair adjacent *)
    if heuristic l2p pairs = 0.0 then []
    else begin
      let module Pq = Set.Make (struct
        type t = float * int * int (* f, tiebreak, id *)

        let compare = compare
      end) in
      let states = Hashtbl.create 256 in
      let closed = Hashtbl.create 256 in
      let counter = ref 0 in
      let queue = ref Pq.empty in
      let push st =
        let h = heuristic st.l2p pairs in
        incr counter;
        Hashtbl.replace states !counter st;
        queue := Pq.add (float_of_int st.g +. h, !counter, !counter) !queue
      in
      push { l2p = Array.copy l2p; swaps_rev = []; g = 0 };
      let expansions = ref 0 in
      let result = ref None in
      while !result = None && (not (Pq.is_empty !queue)) && !expansions < params.max_expansions do
        let ((_, _, id) as top) = Pq.min_elt !queue in
        queue := Pq.remove top !queue;
        let st = Hashtbl.find states id in
        let key = encode_mapping st.l2p in
        if not (Hashtbl.mem closed key) then begin
          Hashtbl.replace closed key ();
          incr expansions;
          Qobs.incr c_expansions;
          if heuristic st.l2p pairs = 0.0 then result := Some (List.rev st.swaps_rev)
          else
            List.iter
              (fun sw ->
                let l2p' = Array.copy st.l2p in
                apply_swap_arr l2p' sw;
                if not (Hashtbl.mem closed (encode_mapping l2p')) then
                  push { l2p = l2p'; swaps_rev = sw :: st.swaps_rev; g = st.g + 1 })
              (candidate_swaps st.l2p pairs)
        end
      done;
      match !result with
      | Some swaps -> swaps
      | None ->
          (* budget exhausted: greedy shortest-path fallback, one gate at a
             time on a scratch mapping *)
          Qobs.incr c_fallbacks;
          let scratch = Array.copy l2p in
          let swaps = ref [] in
          List.iter
            (fun (a, b) ->
              let path = Coupling.shortest_path coupling scratch.(a) scratch.(b) in
              let rec walk = function
                | p :: q :: rest when rest <> [] ->
                    swaps := (p, q) :: !swaps;
                    apply_swap_arr scratch (p, q);
                    walk (q :: rest)
                | _ -> ()
              in
              walk path)
            pairs;
          List.rev !swaps
    end
  in
  List.iter
    (fun layer ->
      Qobs.incr c_layers;
      let pairs =
        List.filter_map
          (fun (i : Qcircuit.Circuit.instr) ->
            if Gate.is_two_qubit i.gate then
              match i.qubits with [ a; b ] -> Some (a, b) | _ -> None
            else None)
          layer
      in
      let swaps = solve_layer pairs in
      if Qobs.Recorder.active () && swaps <> [] then begin
        (* Replay the solved swap sequence on a scratch mapping to record
           each decision with the candidate set it was chosen from (both the
           A* successors and the greedy-fallback path steps are members of
           [candidate_swaps] of the preceding state). *)
        let sim = Array.copy l2p in
        List.iter
          (fun sw ->
            let cands =
              List.map
                (fun (a, b) ->
                  let l2p' = Array.copy sim in
                  apply_swap_arr l2p' (a, b);
                  let h = heuristic l2p' pairs in
                  { Qobs.Recorder.p1 = a; p2 = b; h_basic = h; h_lookahead = 0.0; h; bonus = 0.0 })
                (candidate_swaps sim pairs)
            in
            Qobs.Recorder.record_step ~front:(List.length pairs) ~candidates:cands
              ~chosen:sw ~chosen_bonus:0.0 ();
            apply_swap_arr sim sw)
          swaps
      end;
      List.iter
        (fun (p1, p2) ->
          emit Gate.SWAP [ p1; p2 ];
          apply_swap_arr l2p (p1, p2);
          incr n_swaps)
        swaps;
      List.iter
        (fun (i : Qcircuit.Circuit.instr) ->
          emit i.gate (List.map (fun q -> l2p.(q)) i.qubits))
        layer)
    (layers circuit);
  {
    Sabre.circuit = Qcircuit.Circuit.create n_phys (List.rev !out);
    initial_layout;
    final_layout = Array.copy l2p;
    n_swaps = !n_swaps;
  }
