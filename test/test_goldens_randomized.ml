(* The routing golden corpus under randomized hash tables.  With
   [Hashtbl.randomize ()] every later [Hashtbl.create] draws a random seed,
   so an order derived from a table's fold changes from run to run.  The
   routers' candidate order (their tie-break order) must not come from
   such a fold, so every cell of test/goldens/routing.golden must still
   come out byte-identical. *)

let () = Hashtbl.randomize ()

let golden_path =
  if Sys.file_exists "goldens/routing.golden" then "goldens/routing.golden"
  else "test/goldens/routing.golden"

let test_randomized_goldens () =
  let expected = In_channel.with_open_bin golden_path In_channel.input_all in
  let elines = String.split_on_char '\n' expected in
  let alines = String.split_on_char '\n' (Golden_defs.generate ()) in
  Alcotest.(check int) "golden line count" (List.length elines) (List.length alines);
  List.iteri
    (fun i (e, a) -> Alcotest.(check string) (Printf.sprintf "cell %d" (i + 1)) e a)
    (List.combine elines alines)

let () =
  Alcotest.run "goldens-randomized"
    [
      ( "routing",
        [
          Alcotest.test_case "byte-identical under Hashtbl.randomize" `Quick
            test_randomized_goldens;
        ] );
    ]
