(* A minimal JSON reader, just enough for bench/e2e to compare its run
   sets (and for tests to poke at exported traces) without adding a
   dependency.  Recursive descent over a string;
   numbers are OCaml floats; strings support the standard single-character
   escapes plus \uXXXX (non-ASCII code points decode to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> fail "expected '%c' at offset %d, found end of input" ch c.pos

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail "invalid literal at offset %d" c.pos

let utf8_of_code b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    if c.pos >= String.length c.s then fail "unterminated string";
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents b
    | '\\' -> begin
        if c.pos >= String.length c.s then fail "unterminated escape";
        let e = c.s.[c.pos] in
        c.pos <- c.pos + 1;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            if c.pos + 4 > String.length c.s then fail "truncated \\u escape";
            let hex = String.sub c.s c.pos 4 in
            c.pos <- c.pos + 4;
            let u =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> fail "bad \\u escape '%s'" hex
            in
            utf8_of_code b u
        | _ -> fail "bad escape '\\%c'" e);
        loop ()
      end
    | _ -> Buffer.add_char b ch; loop ()
  in
  loop ()

let parse_number c =
  let start = c.pos in
  let numchar ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while c.pos < String.length c.s && numchar c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match float_of_string_opt tok with
  | Some f -> Num f
  | None -> fail "bad number '%s' at offset %d" tok start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> fail "expected ',' or ']' at offset %d" c.pos
        in
        List (items [])
      end
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}' at offset %d" c.pos
        in
        Obj (members [])
      end
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail "trailing garbage at offset %d" c.pos;
  v

(* ---- printer ---- *)

(* Shortest decimal representation that re-parses to the exact same double:
   try %.15g, %.16g, %.17g in order and keep the first that round-trips
   (17 significant digits always do).  Without this, matrix baselines diff
   spuriously: a float printed with fixed precision parses back to a
   *different* double and every snapshot comparison sees phantom deltas. *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.0f" f
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let serialize ?(indent = 0) v =
  let b = Buffer.create 256 in
  let pad depth = if indent > 0 then Buffer.add_string b (String.make (depth * indent) ' ') in
  let nl () = if indent > 0 then Buffer.add_char b '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f ->
        if Float.is_finite f then Buffer.add_string b (number_to_string f)
        else Buffer.add_string b "null" (* JSON has no NaN/inf *)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (Qobs.json_escape s);
        Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List items ->
        Buffer.add_char b '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (depth + 1);
            go (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
        Buffer.add_char b '{';
        nl ();
        List.iteri
          (fun i (k, item) ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (depth + 1);
            Buffer.add_char b '"';
            Buffer.add_string b (Qobs.json_escape k);
            Buffer.add_string b "\": ";
            go (depth + 1) item)
          kvs;
        nl ();
        pad depth;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

let int n = Num (float_of_int n)

(* ---- accessors ---- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_float = function
  | Num f -> Some f
  | _ -> None

let to_int v = Option.map int_of_float (to_float v)
let to_string = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
