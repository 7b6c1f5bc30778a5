(* Span accounting for the traced run.  A span wraps one public call into a
   layer; its self time is its duration minus the part covered by its child
   spans.  Only per-name totals are kept (a stream job opens tens of
   thousands of spans), together with per-name counts.  One accumulator
   belongs to one unit of work — a job, or one routing trial — and is never
   shared across domains; trial accumulators are merged in trial order after
   the join. *)

type frame = { start : float; mutable covered : float }

type t = {
  mutable open_ : frame list;
  self_ms : (string, float) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
}

let create () = { open_ = []; self_ms = Hashtbl.create 16; counts = Hashtbl.create 16 }

let bump tbl name v =
  Hashtbl.replace tbl name (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))

let span t name f =
  let fr = { start = Unix.gettimeofday (); covered = 0.0 } in
  t.open_ <- fr :: t.open_;
  let close () =
    let dur = Unix.gettimeofday () -. fr.start in
    t.open_ <- List.tl t.open_;
    (match t.open_ with parent :: _ -> parent.covered <- parent.covered +. dur | [] -> ());
    bump t.self_ms name ((dur -. fr.covered) *. 1000.0)
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let count t name v = bump t.counts name v

(* [scale] multiplies the merged self times (the calibration factor) *)
let merge ?(scale = 1.0) ~into t =
  Hashtbl.iter (fun k v -> bump into.self_ms k (v *. scale)) t.self_ms;
  Hashtbl.iter (bump into.counts) t.counts

let self_ms t name = Option.value ~default:0.0 (Hashtbl.find_opt t.self_ms name)
let total_ms t = Hashtbl.fold (fun _ v acc -> acc +. v) t.self_ms 0.0
let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)
