type t = Node.t = { id : int; desc : desc }

and desc = Node.desc =
  | Element of element
  | Text of string

and element = Node.element = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
}

type spec =
  | E of string * (string * string) list * spec list
  | T of string

let elem tag ?(attrs = []) children =
  E (tag, List.sort (fun (a, _) (b, _) -> String.compare a b) attrs, children)

let text s = T s

let of_spec spec =
  let counter = ref 0 in
  let fresh () =
    let id = !counter in
    incr counter;
    id
  in
  (* Preorder numbering: a node gets its id before its children. *)
  let rec freeze = function
    | T s -> { id = fresh (); desc = Text s }
    | E (tag, attrs, children) ->
      let id = fresh () in
      let children = List.map freeze children in
      { id; desc = Element { tag; attrs; children } }
  in
  freeze spec

let rec to_spec node =
  match node.desc with
  | Text s -> T s
  | Element e -> E (e.tag, e.attrs, List.map to_spec e.children)

let tag node =
  match node.desc with Element e -> Some e.tag | Text _ -> None

let is_element node =
  match node.desc with Element _ -> true | Text _ -> false

let is_text node = not (is_element node)

let text_value node =
  match node.desc with Text s -> Some s | Element _ -> None

let children node =
  match node.desc with Element e -> e.children | Text _ -> []

let element_children node = List.filter is_element (children node)

let attr node name =
  match node.desc with
  | Text _ -> None
  | Element e -> List.assoc_opt name e.attrs

let fold f init node =
  let rec go acc node = List.fold_left go (f acc node) (children node) in
  go init node

let iter f node = fold (fun () n -> f n) () node

let descendants_or_self node =
  List.rev (fold (fun acc n -> n :: acc) [] node)

let find_all pred node =
  List.rev (fold (fun acc n -> if pred n then n :: acc else acc) [] node)

let size node = fold (fun acc _ -> acc + 1) 0 node

let count_elements node =
  fold (fun acc n -> if is_element n then acc + 1 else acc) 0 node

let rec depth node =
  match children node with
  | [] -> 1
  | cs -> 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 cs

let string_value node =
  let buf = Buffer.create 64 in
  iter
    (fun n ->
      match n.desc with Text s -> Buffer.add_string buf s | Element _ -> ())
    node;
  Buffer.contents buf

(* [string_value_equal]'s walk: the text nodes in document order, each
   matched against [s] at the offset the text before it reached.  The
   result is that offset, or -1 once the text diverges.  Top-level and
   closure-free, so a comparison allocates nothing. *)
let rec text_matches t s pos i =
  i = String.length t
  || Char.equal (String.unsafe_get t i) (String.unsafe_get s (pos + i))
     && text_matches t s pos (i + 1)

let rec value_reaches s pos node =
  match node.desc with
  | Text t ->
    if pos + String.length t <= String.length s && text_matches t s pos 0
    then pos + String.length t
    else -1
  | Element e -> children_reach s pos e.children

and children_reach s pos = function
  | [] -> pos
  | c :: rest ->
    let pos = value_reaches s pos c in
    if pos < 0 then pos else children_reach s pos rest

let string_value_equal node s = value_reaches s 0 node = String.length s

let rec equal_structure a b =
  match (a.desc, b.desc) with
  | Text s, Text s' -> String.equal s s'
  | Element e, Element e' ->
    String.equal e.tag e'.tag
    && e.attrs = e'.attrs
    && List.length e.children = List.length e'.children
    && List.for_all2 equal_structure e.children e'.children
  | Text _, Element _ | Element _, Text _ -> false

let compare_doc_order a b = Int.compare a.id b.id

let sort_dedup nodes =
  let sorted = List.sort compare_doc_order nodes in
  let rec dedup = function
    | a :: (b :: _ as rest) when a.id = b.id -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let with_attr node name value =
  match node.desc with
  | Text _ -> node
  | Element e ->
    let attrs =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        ((name, value) :: List.remove_assoc name e.attrs)
    in
    { node with desc = Element { e with attrs } }

let rec map_attrs f node =
  match node.desc with
  | Text _ -> node
  | Element e ->
    let attrs =
      List.sort (fun (a, _) (b, _) -> String.compare a b) (f node)
    in
    let children = List.map (map_attrs f) e.children in
    { node with desc = Element { e with attrs; children } }

let rec pp ppf node =
  let pp_items pp_item ppf items = List.iter (pp_item ppf) items in
  let pp_attr ppf (k, v) = Format.fprintf ppf " %s=%S" k v in
  match node.desc with
  | Text s -> Format.pp_print_string ppf s
  | Element e -> (
    match e.children with
    | [] -> Format.fprintf ppf "<%s%a/>" e.tag (pp_items pp_attr) e.attrs
    | cs ->
      Format.fprintf ppf "<%s%a>%a</%s>" e.tag (pp_items pp_attr) e.attrs
        (pp_items pp) cs e.tag)
