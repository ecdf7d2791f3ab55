type violation = {
  node_id : int;
  element : string;
  message : string;
  summary : string;
}

let pp_violation ppf { node_id; element; message; _ } =
  Format.fprintf ppf "node %d <%s>: %s" node_id element message

let symbol_of (node : Sxml.Tree.t) =
  match node.desc with
  | Sxml.Tree.Text _ -> Regex.pcdata
  | Sxml.Tree.Element e -> e.tag

let violation node_id element ~summary message =
  { node_id; element; message; summary }

let element_violations dtd (node : Sxml.Tree.t) =
  match node.desc with
  | Sxml.Tree.Text _ -> []
  | Sxml.Tree.Element e -> (
    match Dtd.production_opt dtd e.tag with
    | None ->
      let m = "element type undeclared in DTD" in
      [ violation node.id e.tag ~summary:m m ]
    | Some rg ->
      let word = List.map symbol_of e.children in
      let content =
        if Regex.matches rg word then []
        else
          let model = Regex.to_string rg in
          [
            violation node.id e.tag
              ~summary:("children do not match content model " ^ model)
              (Printf.sprintf "children [%s] do not match content model %s"
                 (String.concat "; " word) model);
          ]
      in
      let declared = Dtd.attributes dtd e.tag in
      content
      @ List.filter_map
          (fun (name, _) ->
            if List.mem name declared then None
            else
              Some
                (violation node.id e.tag ~summary:"undeclared attribute"
                   (Printf.sprintf "attribute %S is not declared" name)))
          e.attrs)

let check dtd doc =
  let root =
    match Sxml.Tree.tag doc with
    | Some tag when String.equal tag (Dtd.root dtd) -> []
    | Some tag ->
      [
        violation doc.id tag ~summary:"root is not of the DTD root type"
          (Printf.sprintf "root is <%s> but the DTD root type is <%s>" tag
             (Dtd.root dtd));
      ]
    | None ->
      let m = "document root is a text node" in
      [ violation doc.id "#text" ~summary:m m ]
  in
  let rec visit acc node =
    List.fold_left visit
      (List.rev_append (element_violations dtd node) acc)
      (Sxml.Tree.children node)
  in
  root @ List.rev (visit [] doc)

let conforms dtd doc = check dtd doc = []
