type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_char buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

(* [s] from [i] on, [s.[start..i-1]] not yet added: a run that needs
   no escaping goes in with one [add_substring]. *)
let rec escape_run buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' ->
      Buffer.add_substring buf s start (i - start);
      escape_char buf (String.unsafe_get s i);
      escape_run buf s (i + 1) (i + 1)
    | _ -> escape_run buf s start (i + 1)

let escape buf s =
  Buffer.add_char buf '"';
  escape_run buf s 0 0;
  Buffer.add_char buf '"'

(* The shortest of 15, 16 and 17 significant digits that reads back
   to [f]: 17 always does. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let exact s = Float.equal (float_of_string s) f in
    let s = Printf.sprintf "%.15g" f in
    if exact s then s
    else
      let s = Printf.sprintf "%.16g" f in
      if exact s then s else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_buffer = write

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let to_channel oc v = output_string oc (to_string v)

(* ---- parsing ------------------------------------------------------- *)

exception Bad of string

type parser_state = {
  src : string;
  mutable pos : int;
}

(* The deepest nesting of arrays and objects [of_string] reads: the
   program's own documents nest less than 10 deep, and a bound keeps a
   line of a million ['['] from recursing a million times. *)
let max_depth = 512

let fail p msg = raise (Bad (Printf.sprintf "at offset %d: %s" p.pos msg))

(* The parser reads [p.src] in place: [at_end] guards every [cur]. *)
let at_end p = p.pos >= String.length p.src

let cur p = String.unsafe_get p.src p.pos

let advance p = p.pos <- p.pos + 1

let skip_ws p =
  while
    (not (at_end p))
    && match cur p with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance p
  done

let expect p c =
  if at_end p then fail p (Printf.sprintf "expected %C, found end of input" c)
  else if cur p = c then advance p
  else fail p (Printf.sprintf "expected %C, found %C" c (cur p))

(* [word] at [p.pos], compared in place *)
let rec word_at s pos word i =
  i = String.length word
  || String.unsafe_get s (pos + i) = String.unsafe_get word i
     && word_at s pos word (i + 1)

let literal p word value =
  if
    p.pos + String.length word <= String.length p.src
    && word_at p.src p.pos word 0
  then begin
    p.pos <- p.pos + String.length word;
    value
  end
  else fail p ("expected " ^ word)

let hex_digit p c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail p "invalid \\u escape"

(* Four hex digits at [p.pos]; a bad one is reported at the first. *)
let u16 p =
  if p.pos + 4 > String.length p.src then fail p "truncated \\u escape";
  let digit i = hex_digit p (String.unsafe_get p.src (p.pos + i)) in
  let d0 = digit 0 in
  let d1 = digit 1 in
  let d2 = digit 2 in
  let d3 = digit 3 in
  p.pos <- p.pos + 4;
  (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* The end of the run from [i] of characters a string holds as they
   are: the next quote, backslash or control character, or the end of
   the input. *)
let rec run_end s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> run_end s (i + 1)

(* [p.pos] at the character that ended a run: the closing quote, or an
   escape whose character goes into [buf] before the next run. *)
let rec escaped p buf =
  if at_end p then fail p "unterminated string"
  else
    match cur p with
    | '"' ->
      advance p;
      Buffer.contents buf
    | '\\' ->
      advance p;
      if at_end p then fail p "unterminated escape";
      let c = cur p in
      advance p;
      (match c with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        let hi = u16 p in
        if hi >= 0xD800 && hi <= 0xDBFF then
          (* surrogate pair: require the low half *)
          if
            p.pos + 2 <= String.length p.src
            && String.unsafe_get p.src p.pos = '\\'
            && String.unsafe_get p.src (p.pos + 1) = 'u'
          then begin
            p.pos <- p.pos + 2;
            let lo = u16 p in
            if lo < 0xDC00 || lo > 0xDFFF then fail p "invalid surrogate pair"
            else
              add_utf8 buf
                (0x10000 + (((hi - 0xD800) lsl 10) lor (lo - 0xDC00)))
          end
          else fail p "lone high surrogate"
        else if hi >= 0xDC00 && hi <= 0xDFFF then fail p "lone low surrogate"
        else add_utf8 buf hi
      | c -> fail p (Printf.sprintf "invalid escape \\%C" c));
      let start = p.pos in
      p.pos <- run_end p.src start;
      Buffer.add_substring buf p.src start (p.pos - start);
      escaped p buf
    | _ -> fail p "raw control character in string"

(* A string without escapes is one [String.sub] of its run; otherwise
   each run between escapes goes into a buffer with one
   [add_substring]. *)
let parse_string p =
  expect p '"';
  let start = p.pos in
  p.pos <- run_end p.src start;
  if (not (at_end p)) && cur p = '"' then begin
    advance p;
    String.sub p.src start (p.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (p.pos - start + 16) in
    Buffer.add_substring buf p.src start (p.pos - start);
    escaped p buf
  end

let digits p =
  let start = p.pos in
  while (not (at_end p)) && match cur p with '0' .. '9' -> true | _ -> false do
    advance p
  done;
  if p.pos = start then fail p "expected digit"

let parse_number p =
  let start = p.pos in
  if cur p = '-' then advance p;
  digits p;
  let fraction = (not (at_end p)) && cur p = '.' in
  if fraction then begin
    advance p;
    digits p
  end;
  let exponent = (not (at_end p)) && (cur p = 'e' || cur p = 'E') in
  if exponent then begin
    advance p;
    if (not (at_end p)) && (cur p = '+' || cur p = '-') then advance p;
    digits p
  end;
  let text = String.sub p.src start (p.pos - start) in
  if fraction || exponent then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

(* [depth]: the arrays and objects open around the value. *)
let rec parse_value p depth =
  skip_ws p;
  if at_end p then fail p "expected a value";
  match cur p with
  | ('{' | '[') when depth = max_depth ->
    fail p (Printf.sprintf "nesting deeper than %d" max_depth)
  | '{' ->
    advance p;
    skip_ws p;
    if (not (at_end p)) && cur p = '}' then begin
      advance p;
      Obj []
    end
    else Obj (members p (depth + 1) [])
  | '[' ->
    advance p;
    skip_ws p;
    if (not (at_end p)) && cur p = ']' then begin
      advance p;
      List []
    end
    else List (elements p (depth + 1) [])
  | '"' -> String (parse_string p)
  | 't' -> literal p "true" (Bool true)
  | 'f' -> literal p "false" (Bool false)
  | 'n' -> literal p "null" Null
  | '-' | '0' .. '9' -> parse_number p
  | c -> fail p (Printf.sprintf "unexpected character %C" c)

and members p depth acc =
  skip_ws p;
  let key = parse_string p in
  skip_ws p;
  expect p ':';
  let acc = (key, parse_value p depth) :: acc in
  skip_ws p;
  match if at_end p then ' ' else cur p with
  | ',' ->
    advance p;
    members p depth acc
  | '}' ->
    advance p;
    List.rev acc
  | _ -> fail p "expected ',' or '}'"

and elements p depth acc =
  let acc = parse_value p depth :: acc in
  skip_ws p;
  match if at_end p then ' ' else cur p with
  | ',' ->
    advance p;
    elements p depth acc
  | ']' ->
    advance p;
    List.rev acc
  | _ -> fail p "expected ',' or ']'"

let of_string s =
  let p = { src = s; pos = 0 } in
  match parse_value p 0 with
  | v ->
    skip_ws p;
    if p.pos <> String.length s then
      Error (Printf.sprintf "at offset %d: trailing garbage" p.pos)
    else Ok v
  | exception Bad msg -> Error msg

(* ---- accessors ----------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
