(* The repo's one JSON codec: the value type, a compact printer and a
   recursive-descent parser. The wire protocol, the journal, the trace
   reader, the telemetry JSONL sink and the metrics snapshot all read and
   write JSON through this module, so the float and escape rules below are
   written once. See json.mli for the contract. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_string b s =
  Buffer.add_char b '"';
  escape_into b s;
  Buffer.add_char b '"'

(* %.17g round-trips every finite double; JSON has no literal for NaN or
   ±∞, so they travel as strings ([to_float] maps them back). *)
let num_to_string v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else if Float.is_nan v then "\"nan\""
  else if v > 0. then "\"inf\""
  else "\"-inf\""

let rec print_into b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v -> Buffer.add_string b (num_to_string v)
  | Str s -> add_string b s
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          print_into b item)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          print_into b v)
        fields;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  print_into b j;
  Buffer.contents b

(* --- parsing: recursive descent over the line --- *)

exception Bad of string

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.text
    && match c.text.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> raise (Bad (Printf.sprintf "expected '%c' at byte %d, found '%c'" ch c.pos x))
  | None -> raise (Bad (Printf.sprintf "expected '%c' at byte %d, found end of input" ch c.pos))

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else raise (Bad (Printf.sprintf "bad literal at byte %d" c.pos))

(* Validates digits explicitly: int_of_string would raise Failure on a
   malformed escape like \uZZZZ, and the parser's no-raise contract (any
   byte garbage maps to Error, never an exception) is what the fuzz corpora
   in test_server.ml and test_telemetry.ml pin down. *)
let parse_hex4 c =
  if c.pos + 4 > String.length c.text then raise (Bad "truncated \\u escape");
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> raise (Bad (Printf.sprintf "bad hex digit '%c' in \\u escape" ch))
  in
  let v = ref 0 in
  for i = c.pos to c.pos + 3 do
    v := (!v lsl 4) lor digit c.text.[i]
  done;
  c.pos <- c.pos + 4;
  !v

(* Decodes \uXXXX escapes to UTF-8 (surrogate pairs included) so a string
   round-trips even when the peer escapes non-ASCII. *)
let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> raise (Bad "unterminated string")
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | None -> raise (Bad "unterminated escape")
        | Some e ->
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
                let hi = parse_hex4 c in
                if hi >= 0xD800 && hi <= 0xDBFF then begin
                  expect c '\\';
                  expect c 'u';
                  let lo = parse_hex4 c in
                  if lo < 0xDC00 || lo > 0xDFFF then raise (Bad "bad surrogate pair");
                  add_utf8 b (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else add_utf8 b hi
            | _ -> raise (Bad (Printf.sprintf "bad escape '\\%c'" e)));
            go ())
    | Some ch ->
        c.pos <- c.pos + 1;
        Buffer.add_char b ch;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let numeric ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while c.pos < String.length c.text && numeric c.text.[c.pos] do
    c.pos <- c.pos + 1
  done;
  match float_of_string_opt (String.sub c.text start (c.pos - start)) with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "bad number at byte %d" start))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> raise (Bad "unexpected end of input")
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else begin
        let items = ref [ parse_value c ] in
        skip_ws c;
        while peek c = Some ',' do
          c.pos <- c.pos + 1;
          items := parse_value c :: !items;
          skip_ws c
        done;
        expect c ']';
        Arr (List.rev !items)
      end
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws c;
        while peek c = Some ',' do
          c.pos <- c.pos + 1;
          fields := field () :: !fields;
          skip_ws c
        done;
        expect c '}';
        Obj (List.rev !fields)
      end
  | Some _ -> Num (parse_number c)

let of_string s =
  let c = { text = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing bytes after JSON value at byte %d" c.pos)
      else Ok v
  | exception Bad why -> Error why
  (* Belt and braces for the no-raise contract: any stray library exception
     from a hostile input becomes a decode error, never a crashed reader
     thread. *)
  | exception Failure why -> Error ("malformed JSON: " ^ why)
  | exception Invalid_argument why -> Error ("malformed JSON: " ^ why)

(* --- reading values back --- *)

let to_float = function
  | Num v -> Some v
  | Str "nan" -> Some Float.nan
  | Str "inf" -> Some Float.infinity
  | Str "-inf" -> Some Float.neg_infinity
  | _ -> None

let to_int = function
  | Num v when Float.is_integer v && Float.abs v <= 0x1p53 -> Some (int_of_float v)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let field fields name read = Option.bind (List.assoc_opt name fields) read

let to_list elt = function
  | Arr items ->
      List.fold_right
        (fun item acc ->
          match (elt item, acc) with Some v, Some vs -> Some (v :: vs) | _ -> None)
        items (Some [])
  | _ -> None
