type escaping =
  | Xml
  | Json_string

(* The JSON string escapes of the control characters, as [Sobs.Json]
   writes them. *)
let controls =
  Array.init 32 (fun i ->
      match Char.chr i with
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | c -> Printf.sprintf "\\u%04x" (Char.code c))

let json_escape = function
  | '"' -> "\\\""
  | '\\' -> "\\\\"
  | '\000' .. '\031' as c -> controls.(Char.code c)
  | _ -> ""

(* What [c] is written as in text ([attr] false) or an attribute value,
   or [""] when it is written as is: an entity, else — for
   [Json_string] — its JSON escape.  No entity holds a character JSON
   escapes, so this is the XML text escaped again, in one pass. *)
let replacement esc ~attr c =
  match c with
  | '&' -> "&amp;"
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '"' when attr -> "&quot;"
  | '\'' when attr -> "&apos;"
  | _ -> ( match esc with Xml -> "" | Json_string -> json_escape c)

(* Every byte's replacement, one table per escaping and place: text,
   attribute values, and names (which take no entities; inside a JSON
   string they take JSON's escapes), and the attribute value quote. *)
type tables = {
  text : string array;
  attr : string array;
  names : string array;
  quote : string;
}

let tables esc =
  let table f = Array.init 256 (fun i -> f (Char.chr i)) in
  {
    text = table (replacement esc ~attr:false);
    attr = table (replacement esc ~attr:true);
    names =
      table (match esc with Xml -> Fun.const "" | Json_string -> json_escape);
    quote = (match esc with Xml -> "\"" | Json_string -> "\\\"");
  }

let xml = tables Xml
let json = tables Json_string

(* [s] from [i] on, [s.[start..i-1]] not yet added: a run that needs
   no escaping goes in with one [add_substring].  Top-level, like
   [emit] below, so serializing allocates nothing but the buffer's
   growth. *)
let rec escape_run buf table s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    let e = Array.unsafe_get table (Char.code (String.unsafe_get s i)) in
    if String.length e = 0 then escape_run buf table s start (i + 1)
    else begin
      Buffer.add_substring buf s start (i - start);
      Buffer.add_string buf e;
      escape_run buf table s (i + 1) (i + 1)
    end

let escape buf table s = escape_run buf table s 0 0

let rec add_attrs buf esc = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char buf ' ';
    escape buf esc.names k;
    Buffer.add_char buf '=';
    Buffer.add_string buf esc.quote;
    escape buf esc.attr v;
    Buffer.add_string buf esc.quote;
    add_attrs buf esc rest

let open_tag_in buf esc tag attrs =
  Buffer.add_char buf '<';
  escape buf esc.names tag;
  add_attrs buf esc attrs

let close_tag_in buf esc tag =
  Buffer.add_string buf "</";
  escape buf esc.names tag;
  Buffer.add_char buf '>'

let element_only children = List.for_all Tree.is_element children

let pad buf level =
  Buffer.add_char buf '\n';
  for _ = 1 to 2 * level do
    Buffer.add_char buf ' '
  done

(* The one tree walk, escaping through [esc]'s tables.  [indent] is
   only ever set with [xml]: answers written as JSON strings are
   unindented. *)
let rec emit buf esc ~indent level (node : Tree.t) =
  match node.desc with
  | Text s -> escape buf esc.text s
  | Element e -> (
    open_tag_in buf esc e.tag e.attrs;
    match e.children with
    | [] -> Buffer.add_string buf "/>"
    | children ->
      Buffer.add_char buf '>';
      (* Indent only element-only content: indenting mixed content
         would inject whitespace into PCDATA. *)
      let pretty = indent && element_only children in
      emit_children buf esc ~indent ~pretty (level + 1) children;
      if pretty then pad buf level;
      close_tag_in buf esc e.tag)

and emit_children buf esc ~indent ~pretty level = function
  | [] -> ()
  | child :: rest ->
    if pretty then pad buf level;
    emit buf esc ~indent level child;
    emit_children buf esc ~indent ~pretty level rest

let to_buffer esc buf node =
  emit buf
    (match esc with Xml -> xml | Json_string -> json)
    ~indent:false 0 node

let to_string ?(indent = false) doc =
  let buf = Buffer.create 64 in
  emit buf xml ~indent 0 doc;
  Buffer.contents buf

let answer buf nodes =
  List.map
    (fun node ->
      Buffer.clear buf;
      emit buf xml ~indent:false 0 node;
      Buffer.contents buf)
    nodes

let open_tag buf tag attrs = open_tag_in buf xml tag attrs
let close_tag buf tag = close_tag_in buf xml tag
let text buf s = escape buf xml.text s

let to_channel ?(indent = false) oc doc =
  let buf = Buffer.create 4096 in
  emit buf xml ~indent 0 doc;
  Buffer.output_buffer oc buf

let to_file ?indent path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> to_channel ?indent oc doc)
