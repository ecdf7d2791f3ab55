(* The JSON decoder [Sobs.Json.of_string] replaced, kept as the oracle
   the run-copying decoder is differentially tested against: it reads
   through an option per character and builds every string a character
   at a time, and it has no nesting bound.  Below that bound, values,
   error texts and error offsets must agree with [Json.of_string] on
   every input. *)

open Sobs.Json

exception Bad of string

type parser_state = {
  src : string;
  mutable pos : int;
}

let fail p msg = raise (Bad (Printf.sprintf "at offset %d: %s" p.pos msg))

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let skip_ws p =
  while
    p.pos < String.length p.src
    && match p.src.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance p
  done

let expect p c =
  match peek p with
  | Some d when d = c -> advance p
  | Some d -> fail p (Printf.sprintf "expected %C, found %C" c d)
  | None -> fail p (Printf.sprintf "expected %C, found end of input" c)

let literal p word value =
  let n = String.length word in
  if
    p.pos + n <= String.length p.src
    && String.sub p.src p.pos n = word
  then begin
    p.pos <- p.pos + n;
    value
  end
  else fail p (Printf.sprintf "expected %s" word)

let hex_digit p c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail p "invalid \\u escape"

let u16 p =
  if p.pos + 4 > String.length p.src then fail p "truncated \\u escape";
  let v =
    List.fold_left
      (fun acc i -> (acc lsl 4) lor hex_digit p p.src.[p.pos + i])
      0 [ 0; 1; 2; 3 ]
  in
  p.pos <- p.pos + 4;
  v

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

let parse_string p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' -> advance p
    | Some '\\' ->
      advance p;
      (match peek p with
      | None -> fail p "unterminated escape"
      | Some c ->
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
              && p.src.[p.pos] = '\\'
              && p.src.[p.pos + 1] = 'u'
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
        go ())
    | Some c when Char.code c < 0x20 -> fail p "raw control character in string"
    | Some c ->
      advance p;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_float = ref false in
  if peek p = Some '-' then advance p;
  let digits () =
    let saw = ref false in
    while
      match peek p with
      | Some ('0' .. '9') ->
        saw := true;
        advance p;
        true
      | _ -> false
    do
      ()
    done;
    if not !saw then fail p "expected digit"
  in
  digits ();
  if peek p = Some '.' then begin
    is_float := true;
    advance p;
    digits ()
  end;
  (match peek p with
  | Some ('e' | 'E') ->
    is_float := true;
    advance p;
    (match peek p with Some ('+' | '-') -> advance p | _ -> ());
    digits ()
  | _ -> ());
  let text = String.sub p.src start (p.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail p "expected a value"
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin
      advance p;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws p;
        let key = parse_string p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        fields := (key, v) :: !fields;
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          members ()
        | Some '}' -> advance p
        | _ -> fail p "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin
      advance p;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value p in
        items := v :: !items;
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          elements ()
        | Some ']' -> advance p
        | _ -> fail p "expected ',' or ']'"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string p)
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some 'n' -> literal p "null" Null
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail p (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let p = { src = s; pos = 0 } in
  match parse_value p with
  | v ->
    skip_ws p;
    if p.pos <> String.length s then
      Error (Printf.sprintf "at offset %d: trailing garbage" p.pos)
    else Ok v
  | exception Bad msg -> Error msg
