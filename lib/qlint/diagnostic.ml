type severity = Error | Warning | Info

type location =
  | Instr of int
  | Wire of int
  | Source of { line : int; col : int }
  | Stage of string

type t = {
  rule : string;
  severity : severity;
  message : string;
  loc : location option;
}

(* every diagnostic ever constructed is counted, so a traced `check` run
   shows rule traffic next to the pipeline's own counters *)
let c_diags = Qobs.counter "qlint.diagnostics"
let c_errors = Qobs.counter "qlint.errors"

let make severity ?loc ~rule message =
  Qobs.incr c_diags;
  if severity = Error then Qobs.incr c_errors;
  { rule; severity; message; loc }

let error ?loc ~rule message = make Error ?loc ~rule message
let warning ?loc ~rule message = make Warning ?loc ~rule message
let info ?loc ~rule message = make Info ?loc ~rule message

let errorf ?loc ~rule fmt =
  Format.kasprintf (fun message -> error ?loc ~rule message) fmt

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"
let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds
let errors ds = List.filter is_error ds

let pp_location ppf = function
  | Instr i -> Format.fprintf ppf "instr %d" i
  | Wire q -> Format.fprintf ppf "wire %d" q
  | Source { line; col } -> Format.fprintf ppf "line %d, col %d" line col
  | Stage s -> Format.fprintf ppf "stage %s" s

let pp ppf d =
  Format.fprintf ppf "%s[%s]: %s" (severity_name d.severity) d.rule d.message;
  match d.loc with
  | None -> ()
  | Some loc -> Format.fprintf ppf " (%a)" pp_location loc

let to_json d =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"kind\":\"diagnostic\",\"severity\":\"";
  Buffer.add_string b (severity_name d.severity);
  Buffer.add_string b "\",\"rule\":\"";
  Buffer.add_string b (Qobs.json_escape d.rule);
  Buffer.add_string b "\",\"message\":\"";
  Buffer.add_string b (Qobs.json_escape d.message);
  Buffer.add_string b "\"";
  (match d.loc with
  | None -> ()
  | Some (Instr i) -> Buffer.add_string b (Printf.sprintf ",\"instr\":%d" i)
  | Some (Wire q) -> Buffer.add_string b (Printf.sprintf ",\"wire\":%d" q)
  | Some (Source { line; col }) ->
      Buffer.add_string b (Printf.sprintf ",\"line\":%d,\"col\":%d" line col)
  | Some (Stage s) ->
      Buffer.add_string b (Printf.sprintf ",\"stage\":\"%s\"" (Qobs.json_escape s)));
  Buffer.add_string b "}";
  Buffer.contents b

let pp_summary ppf ~checks ds =
  let count s = List.length (List.filter (fun d -> d.severity = s) ds) in
  Format.fprintf ppf "qlint: %d checks, %d diagnostics (%d errors, %d warnings, %d info)"
    checks (List.length ds) (count Error) (count Warning) (count Info)
