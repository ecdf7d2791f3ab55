type error = { position : int; message : string }

exception Error of error

let error_to_string { position; message } =
  Printf.sprintf "XPath parse error at offset %d: %s" position message

type state = { input : string; mutable pos : int }

let fail st message = raise (Error { position = st.pos; message })

let eof st = st.pos >= String.length st.input
let peek st = if eof st then '\000' else st.input.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.input then '\000'
  else st.input.[st.pos + 1]

let advance st = st.pos <- st.pos + 1

let skip_space st =
  while
    (not (eof st))
    && match peek st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = '.' || c = ':'

let is_name_start c = is_name_char c && c <> '.'

let parse_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.input start (st.pos - start)

let looking_at_word st word =
  let n = String.length word in
  st.pos + n <= String.length st.input
  && String.sub st.input st.pos n = word
  && (st.pos + n >= String.length st.input
     || not (is_name_char st.input.[st.pos + n]))

let eat_word st word =
  if looking_at_word st word then begin
    st.pos <- st.pos + String.length word;
    true
  end
  else false

let parse_string_literal st =
  let quote = peek st in
  advance st;
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof st then fail st "unterminated string literal"
    else if peek st = quote then advance st
    else if peek st = '\\' && peek2 st = quote then begin
      advance st;
      Buffer.add_char buf (peek st);
      advance st;
      loop ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let rec parse_path st =
  let first = parse_seq st in
  let rec loop acc =
    skip_space st;
    if peek st = '|' then begin
      advance st;
      skip_space st;
      loop (Ast.Union (acc, parse_seq st))
    end
    else acc
  in
  loop first

and parse_seq st =
  skip_space st;
  let first =
    if peek st = '/' && peek2 st = '/' then begin
      advance st;
      advance st;
      Ast.Dslash (parse_step st)
    end
    else begin
      (* A single leading '/' is cosmetic (see the interface). *)
      if peek st = '/' then advance st;
      parse_step st
    end
  in
  let rec loop acc =
    skip_space st;
    if peek st = '/' && peek2 st = '/' then begin
      advance st;
      advance st;
      loop (Ast.Slash (acc, Ast.Dslash (parse_step st)))
    end
    else if peek st = '/' then begin
      advance st;
      loop (Ast.Slash (acc, parse_step st))
    end
    else acc
  in
  loop first

and parse_step st =
  let base = parse_primary st in
  let rec quals acc =
    skip_space st;
    if peek st = '[' then begin
      advance st;
      let q = parse_qual st in
      skip_space st;
      if peek st <> ']' then fail st "expected ']'";
      advance st;
      quals (Ast.Qualify (acc, q))
    end
    else acc
  in
  quals base

and parse_primary st =
  skip_space st;
  match peek st with
  | '*' ->
    advance st;
    Ast.Wildcard
  | '.' ->
    advance st;
    Ast.Eps
  | '@' ->
    advance st;
    Ast.Attribute (parse_name st)
  | '#' ->
    advance st;
    if eat_word st "empty" then Ast.Empty
    else fail st "expected #empty"
  | '(' ->
    advance st;
    let p = parse_path st in
    skip_space st;
    if peek st <> ')' then fail st "expected ')'";
    advance st;
    p
  | c when is_name_start c -> Ast.Label (parse_name st)
  | _ when eof st -> fail st "unexpected end of input"
  | c -> fail st (Printf.sprintf "unexpected character %C in path" c)

and parse_qual st =
  let first = parse_conj st in
  let rec loop acc =
    skip_space st;
    if eat_word st "or" then loop (Ast.Or (acc, parse_conj st)) else acc
  in
  loop first

and parse_conj st =
  let first = parse_qual_atom st in
  let rec loop acc =
    skip_space st;
    if eat_word st "and" then loop (Ast.And (acc, parse_qual_atom st))
    else acc
  in
  loop first

and parse_qual_atom st =
  skip_space st;
  if eat_word st "not" then begin
    skip_space st;
    if peek st <> '(' then fail st "expected '(' after not";
    advance st;
    let q = parse_qual st in
    skip_space st;
    if peek st <> ')' then fail st "expected ')'";
    advance st;
    Ast.Not q
  end
  else if eat_word st "true" then begin
    parse_unit_args st;
    Ast.True
  end
  else if eat_word st "false" then begin
    parse_unit_args st;
    Ast.False
  end
  else if peek st = '(' then begin
    (* Could be a parenthesized qualifier or a parenthesized path used
       as an existence test; try the qualifier reading first and fall
       back to a path atom (e.g. "(b | c)" or "(b | c)/d = 1"). *)
    let saved = st.pos in
    let attempt () =
      advance st;
      let q = parse_qual st in
      skip_space st;
      if peek st <> ')' then fail st "expected ')'";
      advance st;
      q
    in
    match attempt () with
    | q -> parse_qual_suffix st saved q
    | exception Error _ ->
      st.pos <- saved;
      parse_path_atom st
  end
  else parse_path_atom st

and parse_qual_suffix st saved q =
  (* A parenthesized path may continue: "(a | b)/c = 1".  If what
     follows extends a path, re-parse the whole atom as a path. *)
  skip_space st;
  match peek st with
  | '/' | '[' | '=' ->
    st.pos <- saved;
    parse_path_atom st
  | _ -> q

and parse_path_atom st =
  let p = parse_seq_or_union_atom st in
  skip_space st;
  if peek st = '=' then begin
    advance st;
    skip_space st;
    let v = parse_value st in
    Ast.Eq (p, v)
  end
  else Ast.Exists p

and parse_seq_or_union_atom st =
  (* Inside a qualifier, a path atom may itself be a union only when
     parenthesized; bare unions would be ambiguous with ']'. *)
  parse_seq st

and parse_value st =
  match peek st with
  | '"' | '\'' -> Ast.Const (parse_string_literal st)
  | '$' ->
    advance st;
    Ast.Var (parse_name st)
  | c when (c >= '0' && c <= '9') || c = '-' ->
    let start = st.pos in
    if peek st = '-' then advance st;
    while
      (not (eof st))
      && ((peek st >= '0' && peek st <= '9') || peek st = '.')
    do
      advance st
    done;
    Ast.Const (String.sub st.input start (st.pos - start))
  | _ -> fail st "expected a constant or $variable"

and parse_unit_args st =
  skip_space st;
  if peek st = '(' then begin
    advance st;
    skip_space st;
    if peek st <> ')' then fail st "expected ')'";
    advance st
  end

let of_string input =
  let st = { input; pos = 0 } in
  let p = parse_path st in
  skip_space st;
  if not (eof st) then fail st "trailing input after query";
  p

let of_string_result input =
  match of_string input with
  | p -> Ok p
  | exception Error e -> Error e

let qual_of_string input =
  let st = { input; pos = 0 } in
  let q = parse_qual st in
  skip_space st;
  if not (eof st) then fail st "trailing input after qualifier";
  q
