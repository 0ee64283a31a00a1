(* The one JSON codec of the program: every artifact (registry snapshots,
   Chrome traces, series exports, flight-recorder dumps, the bench
   reports) is built as a [t] and printed by [to_string], and dumps come
   back through [parse]. Hand-rolled -- the repo deliberately takes no
   JSON dependency.

   A number keeps its literal text: the writer prints it as given (the
   artifacts' integers and fixed-decimal figures), the reader keeps the
   lexeme it parsed, and [to_int]/[to_float] convert on read. So
   [parse (to_string v) = Ok v] for every [v] whose numbers are JSON
   number literals. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)
let fixed decimals f = Num (Printf.sprintf "%.*f" decimals f)

(* ---- Writer ---------------------------------------------------------------- *)

(* Quote, backslash, newline and tab get their short escapes, every other
   control byte a \u escape; bytes from 0x7f up pass through. *)
let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num s -> Buffer.add_string buf s
  | Str s -> add_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          add buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  add buf v;
  Buffer.contents buf

(* ---- Reader ---------------------------------------------------------------- *)

exception Parse_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> error "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> error "expected '%c' at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error "invalid literal at offset %d" c.pos

let hex_digit = function
  | '0' .. '9' as h -> Char.code h - Char.code '0'
  | 'a' .. 'f' as h -> Char.code h - Char.code 'a' + 10
  | 'A' .. 'F' as h -> Char.code h - Char.code 'A' + 10
  | h -> error "bad hex digit '%c' in \\u escape" h

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.src then error "unterminated string";
    let ch = c.src.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if c.pos >= String.length c.src then error "unterminated escape";
        let e = c.src.[c.pos] in
        c.pos <- c.pos + 1;
        match e with
        | '"' -> Buffer.add_char buf '"'; go ()
        | '\\' -> Buffer.add_char buf '\\'; go ()
        | '/' -> Buffer.add_char buf '/'; go ()
        | 'n' -> Buffer.add_char buf '\n'; go ()
        | 't' -> Buffer.add_char buf '\t'; go ()
        | 'r' -> Buffer.add_char buf '\r'; go ()
        | 'b' -> Buffer.add_char buf '\b'; go ()
        | 'f' -> Buffer.add_char buf '\012'; go ()
        | 'u' ->
            if c.pos + 4 > String.length c.src then error "truncated \\u escape";
            let code = ref 0 in
            for i = 0 to 3 do
              code := (!code lsl 4) lor hex_digit c.src.[c.pos + i]
            done;
            c.pos <- c.pos + 4;
            (* The code point as UTF-8. Surrogate pairs are not recombined
               (each half takes its own 3-byte form): the writer only
               escapes control bytes. *)
            Buffer.add_utf_8_uchar buf (Uchar.unsafe_of_int !code);
            go ()
        | e -> error "bad escape '\\%c'" e)
    | ch -> Buffer.add_char buf ch; go ()
  in
  go ()

(* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
let parse_number c =
  let start = c.pos in
  let is_digit () = match peek c with Some '0' .. '9' -> true | _ -> false in
  let digits () =
    if not (is_digit ()) then error "bad number at offset %d" start;
    while is_digit () do
      c.pos <- c.pos + 1
    done
  in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  (match peek c with
  | Some '0' -> c.pos <- c.pos + 1
  | _ -> digits ());
  if peek c = Some '.' then begin
    c.pos <- c.pos + 1;
    digits ()
  end;
  (match peek c with
  | Some ('e' | 'E') ->
      c.pos <- c.pos + 1;
      (match peek c with Some ('+' | '-') -> c.pos <- c.pos + 1 | _ -> ());
      digits ()
  | _ -> ());
  Num (String.sub c.src start (c.pos - start))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          expect c '"';
          let key = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members ((key, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              Obj (List.rev ((key, v) :: acc))
          | _ -> error "expected ',' or '}' at offset %d" c.pos
        in
        members []
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              elements (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              Arr (List.rev (v :: acc))
          | _ -> error "expected ',' or ']' at offset %d" c.pos
        in
        elements []
      end
  | Some '"' ->
      c.pos <- c.pos + 1;
      Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
      else Ok v
  | exception Parse_error m -> Error m

let parse_exn s =
  match parse s with Ok v -> v | Error m -> raise (Parse_error m)

(* ---- Accessors ------------------------------------------------------------ *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None
let to_float = function Num s -> float_of_string_opt s | _ -> None

let to_int = function
  | Num s -> (
      match int_of_string_opt s with
      | Some n -> Some n
      | None -> (
          match float_of_string_opt s with
          | Some f when Float.is_integer f -> Some (int_of_float f)
          | _ -> None))
  | _ -> None

let to_obj = function Obj fields -> Some fields | _ -> None

let get_string ?(default = "") j name =
  match member name j with Some (Str s) -> s | _ -> default

let get_int ?(default = 0) j name =
  Option.value ~default (Option.bind (member name j) to_int)

let get_list j name = Option.value ~default:[] (Option.bind (member name j) to_list)
