(* The correctness gate, applied to each distinct job's output outside the
   timed loop.  Batch outputs must pass CheckMap, the hardware basis and
   both layouts; those of at most [verify_cap] instructions must also not
   be refuted by [Qverify] (an [Unknown] verdict is counted, not failed).
   Stream jobs are re-run once with a sink that applies CheckMap to every
   chunk, and must reproduce the timed run's counts. *)

open Qroute
module C = Qcircuit.Circuit

(* Qverify's cost grows steeply with size: one 5000-instruction RevLib
   output took 3 s and still answered unknown *)
let verify_cap = 5000

type t = {
  mutable failures : (string * string) list;  (** (job label, reason), newest first *)
  mutable verified : int;  (** outputs handed to Qverify *)
  mutable unknown : int;  (** of which Qverify could not decide *)
  mutable verify_ms : float;
}

let create () = { failures = []; verified = 0; unknown = 0; verify_ms = 0.0 }
let fail g label why = g.failures <- (label, why) :: g.failures
let failed g label = List.mem_assoc label g.failures
let lint_errors diags = List.filter Qlint.Diagnostic.is_error diags

let first_error = function
  | d :: _ -> Format.asprintf "%a" Qlint.Diagnostic.pp d
  | [] -> ""

let batch g ~coupling ~label ~original (r : Pipeline.result) =
  let layout = function
    | Some l -> Qlint.Rules.layout coupling l
    | None -> [ Qlint.Diagnostic.error ~rule:"route.layout" "no layout reported" ]
  in
  let errs =
    lint_errors
      (Qlint.Rules.check_map coupling r.circuit
      @ Qlint.Rules.hardware_basis r.circuit
      @ layout r.initial_layout @ layout r.final_layout)
  in
  if errs <> [] then fail g label (first_error errs)
  else if C.size r.circuit <= verify_cap then begin
    let t0 = Unix.gettimeofday () in
    let v =
      Qverify.verify_routed ~original ~routed:r.circuit ?initial_layout:r.initial_layout
        ?final_layout:r.final_layout ()
    in
    g.verify_ms <- g.verify_ms +. ((Unix.gettimeofday () -. t0) *. 1000.0);
    g.verified <- g.verified + 1;
    match v with
    | Qverify.Equivalent _ -> ()
    | Qverify.Unknown _ -> g.unknown <- g.unknown + 1
    | Qverify.Not_equivalent { reason; _ } -> fail g label ("not equivalent: " ^ reason)
  end

let stream g ~coupling ~label ~router ~params ~expected source =
  let bad = ref [] in
  let r =
    Pipeline.transpile_stream ~params ~window:Workloads.window ~router
      ~sink:(fun chunk ->
        if !bad = [] then bad := lint_errors (Qlint.Rules.check_map coupling chunk))
      coupling source
  in
  if !bad <> [] then fail g label (first_error !bad)
  else if r <> expected then fail g label "stream counts differ from the timed run"
