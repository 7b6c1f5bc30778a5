type error = { line : int; col : int; msg : string }

let string_of_error { line; col; msg } = Printf.sprintf "line %d, col %d: %s" line col msg

exception Parse_error of string

(* internal: rejections carry their source position and are converted to the
   public representation at the parse_result boundary *)
exception Located of error

let fail (line, col) msg = raise (Located { line; col; msg })

(* ---- angle expression evaluator (pi, literals, + - * /, parens) ---- *)

type tok = Num of float | Op of char | LPar | RPar

let lex_expr pos s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '(' then begin
      toks := LPar :: !toks;
      incr i
    end
    else if c = ')' then begin
      toks := RPar :: !toks;
      incr i
    end
    else if c = '+' || c = '-' || c = '*' || c = '/' then begin
      toks := Op c :: !toks;
      incr i
    end
    else if (c >= '0' && c <= '9') || c = '.' then begin
      let j = ref !i in
      while
        !j < n
        && ((s.[!j] >= '0' && s.[!j] <= '9')
           || s.[!j] = '.' || s.[!j] = 'e' || s.[!j] = 'E'
           || (s.[!j] = '-' && !j > !i && (s.[!j - 1] = 'e' || s.[!j - 1] = 'E'))
           || (s.[!j] = '+' && !j > !i && (s.[!j - 1] = 'e' || s.[!j - 1] = 'E')))
      do
        incr j
      done;
      toks := Num (float_of_string (String.sub s !i (!j - !i))) :: !toks;
      i := !j
    end
    else if c = 'p' && !i + 1 < n && s.[!i + 1] = 'i' then begin
      toks := Num Float.pi :: !toks;
      i := !i + 2
    end
    else fail pos (Printf.sprintf "unexpected character %c in expression %S" c s)
  done;
  List.rev !toks

(* recursive-descent: expr := term (('+'|'-') term)*; term := factor
   (('*'|'/') factor)*; factor := '-' factor | '(' expr ')' | number *)
let eval_expr pos s =
  let toks = ref (lex_expr pos s) in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let advance () = match !toks with [] -> () | _ :: rest -> toks := rest in
  let rec expr () =
    let v = ref (term ()) in
    let rec loop () =
      match peek () with
      | Some (Op '+') ->
          advance ();
          v := !v +. term ();
          loop ()
      | Some (Op '-') ->
          advance ();
          v := !v -. term ();
          loop ()
      | _ -> ()
    in
    loop ();
    !v
  and term () =
    let v = ref (factor ()) in
    let rec loop () =
      match peek () with
      | Some (Op '*') ->
          advance ();
          v := !v *. factor ();
          loop ()
      | Some (Op '/') ->
          advance ();
          v := !v /. factor ();
          loop ()
      | _ -> ()
    in
    loop ();
    !v
  and factor () =
    match peek () with
    | Some (Op '-') ->
        advance ();
        -.factor ()
    | Some LPar ->
        advance ();
        let v = expr () in
        (match peek () with
        | Some RPar -> advance ()
        | _ -> fail pos "expected )");
        v
    | Some (Num x) ->
        advance ();
        x
    | _ -> fail pos ("bad expression: " ^ s)
  in
  let v = expr () in
  if !toks <> [] then fail pos ("trailing tokens in expression: " ^ s);
  v

(* ---- statement parsing ---- *)

let strip s = String.trim s

let strip_comment s =
  match String.index_opt s '/' with
  | Some i when i + 1 < String.length s && s.[i + 1] = '/' -> String.sub s 0 i
  | _ -> s

(* "name(args) q[1],q[2]" -> (name, Some args, operands) *)
let split_application pos stmt =
  let stmt = strip stmt in
  let head, rest =
    match String.index_opt stmt ' ' with
    | None -> (stmt, "")
    | Some i -> (String.sub stmt 0 i, strip (String.sub stmt (i + 1) (String.length stmt - i - 1)))
  in
  match String.index_opt head '(' with
  | None -> (head, None, rest)
  | Some i ->
      if head.[String.length head - 1] <> ')' then fail pos "malformed parameter list";
      let name = String.sub head 0 i in
      let args = String.sub head (i + 1) (String.length head - i - 2) in
      (name, Some args, rest)

let parse_qubit pos (reg, size) s =
  let s = strip s in
  let fail_q () = fail pos (Printf.sprintf "bad operand %S" s) in
  match (String.index_opt s '[', String.index_opt s ']') with
  | Some i, Some j when j > i ->
      let name = String.sub s 0 i in
      if name <> reg then fail pos (Printf.sprintf "unknown register %s" name);
      let q =
        try int_of_string (String.sub s (i + 1) (j - i - 1)) with _ -> fail_q ()
      in
      if q < 0 || q >= size then
        fail pos (Printf.sprintf "qubit index %d out of range for %s[%d]" q reg size);
      q
  | _ -> fail_q ()

let split_args s =
  (* split on commas not inside parentheses *)
  let out = ref [] and buf = Buffer.create 8 and depth = ref 0 in
  String.iter
    (fun c ->
      if c = '(' then begin
        incr depth;
        Buffer.add_char buf c
      end
      else if c = ')' then begin
        decr depth;
        Buffer.add_char buf c
      end
      else if c = ',' && !depth = 0 then begin
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      end
      else Buffer.add_char buf c)
    s;
  if Buffer.length buf > 0 then out := Buffer.contents buf :: !out;
  List.rev_map strip !out

let gate_of_name pos name params =
  let p k = List.nth params k in
  let arity_check n =
    if List.length params <> n then
      fail pos (Printf.sprintf "%s expects %d parameters" name n)
  in
  match (name, List.length params) with
  | "id", 0 -> Qgate.Gate.Id
  | "x", 0 -> Qgate.Gate.X
  | "y", 0 -> Qgate.Gate.Y
  | "z", 0 -> Qgate.Gate.Z
  | "h", 0 -> Qgate.Gate.H
  | "s", 0 -> Qgate.Gate.S
  | "sdg", 0 -> Qgate.Gate.Sdg
  | "t", 0 -> Qgate.Gate.T
  | "tdg", 0 -> Qgate.Gate.Tdg
  | "sx", 0 -> Qgate.Gate.SX
  | "sxdg", 0 -> Qgate.Gate.SXdg
  | "rx", _ ->
      arity_check 1;
      Qgate.Gate.RX (p 0)
  | "ry", _ ->
      arity_check 1;
      Qgate.Gate.RY (p 0)
  | "rz", _ ->
      arity_check 1;
      Qgate.Gate.RZ (p 0)
  | ("p" | "u1"), _ ->
      arity_check 1;
      Qgate.Gate.P (p 0)
  | "u2", _ ->
      arity_check 2;
      Qgate.Gate.U (Float.pi /. 2.0, p 0, p 1)
  | ("u" | "u3"), _ ->
      arity_check 3;
      Qgate.Gate.U (p 0, p 1, p 2)
  | "cx", 0 -> Qgate.Gate.CX
  | "cy", 0 -> Qgate.Gate.CY
  | "cz", 0 -> Qgate.Gate.CZ
  | "ch", 0 -> Qgate.Gate.CH
  | "swap", 0 -> Qgate.Gate.SWAP
  | "crx", _ ->
      arity_check 1;
      Qgate.Gate.CRX (p 0)
  | "cry", _ ->
      arity_check 1;
      Qgate.Gate.CRY (p 0)
  | "crz", _ ->
      arity_check 1;
      Qgate.Gate.CRZ (p 0)
  | ("cp" | "cu1"), _ ->
      arity_check 1;
      Qgate.Gate.CP (p 0)
  | "rzz", _ ->
      arity_check 1;
      Qgate.Gate.RZZ (p 0)
  | "ccx", 0 -> Qgate.Gate.CCX
  | "ccz", 0 -> Qgate.Gate.CCZ
  | "cswap", 0 -> Qgate.Gate.CSWAP
  | "mcx", 0 -> Qgate.Gate.MCX 0 (* arity fixed by operand count below *)
  | _ -> fail pos (Printf.sprintf "unsupported gate %s" name)

(* located legality check, mirroring Circuit.check_instr: report arity and
   operand errors at their source statement instead of from Circuit.create *)
let check_operands pos gate qs =
  let arity = Qgate.Gate.arity gate in
  let k = List.length qs in
  if k <> arity then
    fail pos
      (Printf.sprintf "gate %s expects %d qubit operands, got %d" (Qgate.Gate.name gate)
         arity k);
  if List.length (List.sort_uniq compare qs) <> k then
    fail pos
      (Printf.sprintf "repeated qubit operand in %s %s" (Qgate.Gate.name gate)
         (String.concat "," (List.map string_of_int qs)))

(* statements of one physical line as (1-based column, text) pairs; several
   statements may share a line, separated by ';' *)
let statements_of_line raw =
  let body = strip_comment raw in
  let n = String.length body in
  let out = ref [] in
  let flush start stop =
    let s = String.sub body start (stop - start) in
    (* point the column at the first non-blank character *)
    let lead = ref 0 in
    let len = String.length s in
    while !lead < len && (s.[!lead] = ' ' || s.[!lead] = '\t') do
      incr lead
    done;
    if strip s <> "" then out := (start + !lead + 1, strip s) :: !out
  in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if body.[i] = ';' then begin
      flush !start i;
      start := i + 1
    end
  done;
  if !start < n then flush !start n;
  List.rev !out

let parse_result text =
  let lines = String.split_on_char '\n' text in
  let qreg = ref None in
  let instrs = ref [] in
  let lineno = ref 0 in
  let handle_statement pos stmt =
    let name, args, operands = split_application pos stmt in
    match name with
    | "OPENQASM" | "include" -> ()
    | "qreg" -> begin
        match (String.index_opt operands '[', String.index_opt operands ']') with
        | Some i, Some j when j > i ->
            let reg = String.sub operands 0 i in
            let size =
              try int_of_string (String.sub operands (i + 1) (j - i - 1))
              with _ -> fail pos "malformed qreg size"
            in
            if size < 0 then fail pos (Printf.sprintf "negative qreg size %d" size);
            if !qreg <> None then fail pos "multiple qreg declarations unsupported";
            qreg := Some (reg, size)
        | _ -> fail pos "malformed qreg"
      end
    | "creg" -> ()
    | "barrier" -> begin
        match !qreg with
        | None -> fail pos "barrier before qreg"
        | Some reg ->
            let qs = List.map (parse_qubit pos reg) (split_args operands) in
            instrs :=
              { Circuit.gate = Qgate.Gate.Barrier (List.length qs); qubits = qs } :: !instrs
      end
    | "measure" -> begin
        match !qreg with
        | None -> fail pos "measure before qreg"
        | Some reg -> begin
            match String.index_opt operands '-' with
            | Some i when i + 1 < String.length operands && operands.[i + 1] = '>' ->
                let q = parse_qubit pos reg (String.sub operands 0 i) in
                instrs := { Circuit.gate = Qgate.Gate.Measure; qubits = [ q ] } :: !instrs
            | _ -> fail pos "malformed measure"
          end
      end
    | _ -> begin
        match !qreg with
        | None -> fail pos "gate before qreg"
        | Some reg ->
            let params =
              match args with
              | None -> []
              | Some a -> List.map (eval_expr pos) (split_args a)
            in
            let qs = List.map (parse_qubit pos reg) (split_args operands) in
            let gate =
              match gate_of_name pos name params with
              | Qgate.Gate.MCX _ -> Qgate.Gate.MCX (List.length qs - 1)
              | g -> g
            in
            check_operands pos gate qs;
            instrs := { Circuit.gate; qubits = qs } :: !instrs
      end
  in
  try
    List.iter
      (fun raw ->
        incr lineno;
        List.iter
          (fun (col, stmt) -> handle_statement (!lineno, col) stmt)
          (statements_of_line raw))
      lines;
    match !qreg with
    | None -> Error { line = !lineno; col = 1; msg = "no qreg declaration found" }
    | Some (_, size) -> Ok (Circuit.create size (List.rev !instrs))
  with Located e -> Error e

let parse text =
  match parse_result text with
  | Ok c -> c
  | Error e -> raise (Parse_error (string_of_error e))

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let buf = really_input_string ic n in
  close_in ic;
  buf

let parse_file path = parse (read_file path)
