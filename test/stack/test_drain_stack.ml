(* A route that never needs a SWAP drains the front round after round.
   The engine must do that in constant stack: under a 100k-word stack
   limit, set by this directory's dune stanza, 300k gates route to the
   end.  When each drain round recursed into the next one, this run died
   with Stack_overflow, and every minor GC scanned the growing stack. *)

open Qcircuit
open Qgate
module Engine = Qroute.Engine

let gates = 300_000

(* H gates alternating between the two wires of a 2-qubit line *)
let source () =
  let k = ref 0 in
  Source.create ~n_qubits:2 (fun () ->
      if !k = gates then None
      else begin
        incr k;
        Some { Circuit.gate = Gate.H; qubits = [ !k land 1 ] }
      end)

let test_no_swap_stream () =
  let coupling = Topology.Devices.linear 2 in
  let params = Engine.default_params in
  let out = ref 0 in
  let st =
    Engine.route_stream params coupling ~rng:(Engine.route_rng params)
      ~dist:(Topology.Distmat.hops coupling) ~bonus:Engine.zero_bonus ~window:64
      ~sink:(fun _ -> incr out)
      (source ()) [| 0; 1 |]
  in
  Alcotest.(check int) "every gate consumed" gates st.Engine.st_gates_in;
  Alcotest.(check int) "every gate emitted" gates !out;
  Alcotest.(check int) "no SWAP" 0 st.Engine.st_n_swaps

let () =
  Alcotest.run "drain_stack"
    [
      ( "drain",
        [
          Alcotest.test_case "300k-gate no-SWAP stream, 100k-word stack" `Quick
            test_no_swap_stream;
        ] );
    ]
