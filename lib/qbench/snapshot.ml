(* The single snapshot writer: header, file naming and serialization for
   every BENCH_*.json the bench harness leaves behind. *)

let git_short_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "local"
  with _ -> "local"

let document ~schema_version ~kind fields =
  Jsonlite.Obj
    (("schema_version", Jsonlite.int schema_version)
    :: ("kind", Jsonlite.Str kind)
    :: ("git_sha", Jsonlite.Str (git_short_sha ()))
    :: fields)

let write ?out ~suffix doc =
  let path =
    match out with
    | Some f -> f
    | None -> Printf.sprintf "BENCH_%s%s.json" (git_short_sha ()) suffix
  in
  let oc = open_out path in
  output_string oc (Jsonlite.serialize ~indent:2 doc);
  output_char oc '\n';
  close_out oc;
  path
