let entity ~attr = function
  | '&' -> "&amp;"
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '"' when attr -> "&quot;"
  | '\'' when attr -> "&apos;"
  | _ -> ""

(* [s] from [i] on, [s.[start..i-1]] not yet added: a run that needs
   no escaping goes in with one [add_substring].  Top-level, like
   [emit] below, so serializing allocates nothing but the buffer's
   growth. *)
let rec escape_run buf ~attr s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    match entity ~attr (String.unsafe_get s i) with
    | "" -> escape_run buf ~attr s start (i + 1)
    | e ->
      Buffer.add_substring buf s start (i - start);
      Buffer.add_string buf e;
      escape_run buf ~attr s (i + 1) (i + 1)

let escape buf ~attr s = escape_run buf ~attr s 0 0

let escape_via ~attr s =
  let buf = Buffer.create (String.length s + 8) in
  escape buf ~attr s;
  Buffer.contents buf

let escape_text s = escape_via ~attr:false s
let escape_attr s = escape_via ~attr:true s

let rec add_attrs buf = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    escape buf ~attr:true v;
    Buffer.add_char buf '"';
    add_attrs buf rest

let element_only children = List.for_all Tree.is_element children

let pad buf level =
  Buffer.add_char buf '\n';
  for _ = 1 to 2 * level do
    Buffer.add_char buf ' '
  done

let rec emit buf ~indent level (node : Tree.t) =
  match node.desc with
  | Text s -> escape buf ~attr:false s
  | Element e -> (
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    add_attrs buf e.attrs;
    match e.children with
    | [] -> Buffer.add_string buf "/>"
    | children ->
      Buffer.add_char buf '>';
      (* Indent only element-only content: indenting mixed content
         would inject whitespace into PCDATA. *)
      let pretty = indent && element_only children in
      emit_children buf ~indent ~pretty (level + 1) children;
      if pretty then pad buf level;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>')

and emit_children buf ~indent ~pretty level = function
  | [] -> ()
  | child :: rest ->
    if pretty then pad buf level;
    emit buf ~indent level child;
    emit_children buf ~indent ~pretty level rest

let to_buffer ?(indent = false) buf doc = emit buf ~indent 0 doc

let to_string ?indent doc =
  let buf = Buffer.create 64 in
  to_buffer ?indent buf doc;
  Buffer.contents buf

let answer buf nodes =
  List.map
    (fun node ->
      Buffer.clear buf;
      emit buf ~indent:false 0 node;
      Buffer.contents buf)
    nodes

let to_channel ?indent oc doc =
  let buf = Buffer.create 4096 in
  to_buffer ?indent buf doc;
  Buffer.output_buffer oc buf

let to_file ?indent path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> to_channel ?indent oc doc)
