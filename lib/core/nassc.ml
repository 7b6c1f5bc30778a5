open Qgate

type config = {
  enable_2q : bool;
  enable_commute1 : bool;
  enable_commute2 : bool;
  orient_swaps : bool;
  scan_limit : int;
}

let default_config =
  {
    enable_2q = true;
    enable_commute1 = true;
    enable_commute2 = true;
    orient_swaps = true;
    scan_limit = 20;
  }

let swap_unitary = Unitary.of_gate Gate.SWAP

let c_c2q = Qobs.counter "nassc.c2q_bonus_evals"
let c_walks = Qobs.counter "nassc.commute_walks"
let c_commute1 = Qobs.counter "nassc.commute1_hits"
let c_commute2 = Qobs.counter "nassc.commute2_hits"
let c_oriented = Qobs.counter "nassc.oriented_swaps_emitted"
let c_weyl_hits = Qobs.counter "nassc.weyl_cache_hits"
let c_weyl_misses = Qobs.counter "nassc.weyl_cache_misses"

(* ---- merged per-wire window walk ----

   Both bonus scans read a bounded window of recently emitted ops and only
   ever act on ops touching the candidate pair.  The stream's per-wire
   tails give exactly those ops; ops on both wires carry the same emission
   index and are deduplicated by the merge.  The historical window bound
   counted *all* ops (touching or not): an op is inside the window of size
   [limit] iff its emission index is >= total - limit, which the indices
   let us enforce without ever visiting the skipped ops. *)

let next_on_pair w1 w2 =
  match (w1, w2) with
  | [], [] -> None
  | (h1 :: t1 : (int * Engine.out_op) list), [] -> Some (h1, t1, [])
  | [], h2 :: t2 -> Some (h2, [], t2)
  | ((i1, _) as h1) :: t1, ((i2, _) as h2) :: t2 ->
      if i1 = i2 then Some (h1, t1, t2)
      else if i1 > i2 then Some (h1, t1, w2)
      else Some (h2, w1, t2)

(* ---- C_2q and its memoized cache ----

   [c2q_bonus] reads the trailing block and classifies it, with and
   without the SWAP, for every candidate; across candidates and steps the
   same local block recurs constantly.  The cache maps the block's exact
   signature ([Qpasses.Blocks.signature], the candidate's first wire as
   local qubit 0) to its [c2q_saving].  Domain-local (no sharing, no
   locks), bounded (reset at [weyl_cache_cap]), and reset per traced trial
   by the pipeline so hit/miss counters are deterministic for any worker
   count.  Keys are injective, so caching cannot change any routing
   decision. *)

let c2q_saving block_u =
  let before = Qpasses.Weyl.cnot_cost_fast block_u in
  let after = Qpasses.Weyl.cnot_cost_fast (Mathkit.Mat.mul swap_unitary block_u) in
  max 0 (before + 3 - after)

let weyl_cache_cap = 4096

let weyl_cache_key : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let reset_weyl_cache () = Hashtbl.reset (Domain.DLS.get weyl_cache_key)

let op_gate (op : Engine.out_op) = op.gate
let op_qubits (op : Engine.out_op) = op.op_qubits

(* C_2q: CNOTs the SWAP saves by merging into the trailing two-qubit block
   on (p1, p2).  The trailing block is the run of ops confined to the pair,
   read from the end of the emitted stream through the per-wire tails. *)
let c2q_bonus ~stream ~scan_limit p1 p2 =
  let cutoff = Engine.stream_total stream - scan_limit in
  let rec collect acc has2q w1 w2 =
    match next_on_pair w1 w2 with
    | None -> (acc, has2q)
    | Some ((idx, op), w1', w2') ->
        if idx < cutoff then (acc, has2q)
        else if Gate.is_one_qubit op.Engine.gate then collect (op :: acc) has2q w1' w2'
        else if
          Gate.is_two_qubit op.gate
          && List.sort compare op.op_qubits = List.sort compare [ p1; p2 ]
        then collect (op :: acc) true w1' w2'
        else (acc, has2q)
  in
  let block, has2q =
    collect [] false (Engine.stream_wire stream p1) (Engine.stream_wire stream p2)
  in
  if not has2q then 0.0
  else begin
    let key = Qpasses.Blocks.signature ~zero:p1 op_gate op_qubits block in
    let cache = Domain.DLS.get weyl_cache_key in
    let saving =
      match Hashtbl.find_opt cache key with
      | Some saving ->
          Qobs.incr c_weyl_hits;
          saving
      | None ->
          Qobs.incr c_weyl_misses;
          let saving =
            c2q_saving (Qpasses.Blocks.unitary ~zero:p1 op_gate op_qubits block)
          in
          if Hashtbl.length cache >= weyl_cache_cap then Hashtbl.reset cache;
          Hashtbl.add cache key saving;
          saving
    in
    float_of_int saving
  end

(* Walk back from the candidate SWAP looking for a cancellable CNOT (case 1)
   or a sandwich SWAP (case 2) with first CNOT oriented (c, t).  Single
   qubit gates contiguous with the SWAP are movable through it; afterwards
   every skipped gate must commute with cx(c, t). *)
type found = Cx_found | Swap_found of Engine.out_op | Nothing

let commute_walk ~scan_limit ~stream p1 p2 c t =
  let cx_ref = (Gate.CX, [ c; t ]) in
  let cutoff = Engine.stream_total stream - scan_limit in
  let rec walk contiguous w1 w2 =
    match next_on_pair w1 w2 with
    | None -> Nothing
    | Some ((idx, op), w1', w2') ->
        if idx < cutoff then Nothing
        else if Gate.is_one_qubit op.Engine.gate then
          if contiguous then walk true w1' w2'
          else if Qpasses.Commutation.commute (op.gate, op.op_qubits) cx_ref then
            walk false w1' w2'
          else Nothing
        else if Gate.is_directive op.gate then Nothing
        else if List.sort compare op.op_qubits = List.sort compare [ p1; p2 ] then begin
          match op.gate with
          | Gate.CX when op.op_qubits = [ c; t ] -> Cx_found
          | Gate.SWAP -> Swap_found op
          | _ -> Nothing
        end
        else if Qpasses.Commutation.commute (op.gate, op.op_qubits) cx_ref then
          walk false w1' w2'
        else Nothing
  in
  walk true (Engine.stream_wire stream p1) (Engine.stream_wire stream p2)

let orientation_tag_compatible (op : Engine.out_op) c t =
  match op.tag with
  | Engine.Swap_plain -> true
  | Engine.Swap_orient (c', t') -> c = c' && t = t'
  | Engine.Not_swap -> false

let commute_bonus cfg ~stream p1 p2 =
  let tag_if_enabled (op : Engine.out_op) c t =
    if cfg.orient_swaps then op.tag <- Engine.Swap_orient (c, t)
  in
  let try_orientation (c, t) =
    Qobs.incr c_walks;
    match commute_walk ~scan_limit:cfg.scan_limit ~stream p1 p2 c t with
    | Cx_found when cfg.enable_commute1 ->
        Qobs.incr c_commute1;
        Some
          ( 2.0,
            Qobs.Recorder.Commute1,
            fun (swap_op : Engine.out_op) -> tag_if_enabled swap_op c t )
    | Swap_found earlier when cfg.enable_commute2 && orientation_tag_compatible earlier c t
      ->
        Qobs.incr c_commute2;
        Some
          ( 2.0,
            Qobs.Recorder.Commute2,
            fun (swap_op : Engine.out_op) ->
              tag_if_enabled earlier c t;
              tag_if_enabled swap_op c t )
    | _ -> None
  in
  match try_orientation (p1, p2) with
  | Some r -> Some r
  | None -> try_orientation (p2, p1)

let bonus cfg : Engine.bonus_fn =
 fun ~stream ~mapping:_ p1 p2 ->
  let c2q =
    if cfg.enable_2q then begin
      Qobs.incr c_c2q;
      c2q_bonus ~stream ~scan_limit:cfg.scan_limit p1 p2
    end
    else 0.0
  in
  let note kind =
    if Qobs.Recorder.active () then Qobs.Recorder.note_bucket ~p1 ~p2 kind
  in
  match commute_bonus cfg ~stream p1 p2 with
  | Some (c_comm, kind, action) when c_comm >= c2q ->
      note kind;
      (c_comm, action)
  | Some _ | None ->
      if c2q > 0.0 then note Qobs.Recorder.C2q;
      if c2q = 0.0 then Engine.no_bonus else (c2q, Engine.no_action)

(* ---- optimization-aware SWAP decomposition ---- *)

let cx a b = { Qcircuit.Circuit.gate = Gate.CX; qubits = [ a; b ] }

module Streaming = struct
  (* Incremental SWAP finalization for the streaming engine.  The only
     backward edit [finalize] ever performs is an oriented swap pulling the
     contiguous run of one-qubit gates sitting directly before it on its
     wires; the pull stops at the first instruction that is not a 1q gate.
     So a pending buffer holding exactly the trailing contiguous 1q run
     reproduces batch finalization byte-for-byte while everything below
     that run flushes downstream immediately. *)

  type t = {
    emit : Qcircuit.Circuit.instr -> unit;
    mutable pend : Qcircuit.Circuit.instr list;  (* newest first *)
  }

  let create ~emit = { emit; pend = [] }

  (* flush everything below the trailing contiguous 1q run (final: no
     future op can pull or reorder it) *)
  let settle t =
    let rec split kept = function
      | (i : Qcircuit.Circuit.instr) :: rest when Gate.is_one_qubit i.gate ->
          split (i :: kept) rest
      | below -> (kept, below)
    in
    match split [] t.pend with
    | _, [] -> ()
    | kept_oldest_first, below ->
        List.iter t.emit (List.rev below);
        t.pend <- List.rev kept_oldest_first

  let push t (op : Engine.out_op) =
    let emit i = t.pend <- i :: t.pend in
    match (op.gate, op.op_qubits, op.tag) with
    | Gate.SWAP, [ a; b ], Engine.Swap_plain ->
        List.iter emit [ cx a b; cx b a; cx a b ];
        settle t
    | Gate.SWAP, [ a; b ], Engine.Swap_orient (c, tg) ->
        Qobs.incr c_oriented;
        let moved = ref [] in
        let rec pull () =
          match t.pend with
          | (i : Qcircuit.Circuit.instr) :: rest
            when Gate.is_one_qubit i.gate
                 && (i.qubits = [ a ] || i.qubits = [ b ]) ->
              t.pend <- rest;
              moved := i :: !moved;
              pull ()
          | _ -> ()
        in
        pull ();
        List.iter emit [ cx c tg; cx tg c; cx c tg ];
        (* re-emit moved gates after the swap on the exchanged wire,
           preserving their relative order *)
        List.iter
          (fun (i : Qcircuit.Circuit.instr) ->
            let q = List.hd i.qubits in
            let q' = if q = a then b else a in
            emit { i with qubits = [ q' ] })
          !moved;
        settle t
    | _, qs, _ ->
        emit { Qcircuit.Circuit.gate = op.gate; qubits = qs };
        (* between pushes [pend] is settled, so it holds one-qubit gates
           only; a one-qubit op keeps it so and leaves nothing to flush.
           Skipping [settle] keeps the push O(1) on a stream of one-qubit
           gates, whose pending run is unbounded. *)
        if not (Gate.is_one_qubit op.gate) then settle t

  let flush t =
    List.iter t.emit (List.rev t.pend);
    t.pend <- []

  let pending t = List.length t.pend
end

let finalize ops =
  (* batch finalization is the streaming finalizer draining into a list *)
  let acc = ref [] in
  let st = Streaming.create ~emit:(fun i -> acc := i :: !acc) in
  List.iter (Streaming.push st) ops;
  Streaming.flush st;
  List.rev !acc
