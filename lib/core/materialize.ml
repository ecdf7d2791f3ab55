type vtree = {
  vlabel : string;
  source : Sxml.Tree.t;
  vattrs : (string * string) list;
  vchildren : vchild list;
}

and vchild =
  | Velem of vtree
  | Vtext of string

exception Abort of string

let abort fmt = Printf.ksprintf (fun s -> raise (Abort s)) fmt

let materialize ?env ?accessible ~spec ~view doc =
  let accessible =
    match accessible with
    | Some flags -> flags
    | None -> Access.accessible_flags ?env spec doc
  in
  let is_accessible (n : Sxml.Tree.t) = Access.flag accessible n.id in
  let attrs_of source =
    Access.accessible_attributes ?env ~accessible spec doc source
  in
  let dtd = View.dtd view in
  let rec build vlabel (source : Sxml.Tree.t) =
    let prod = Sdtd.Dtd.production dtd vlabel in
    (* Candidate element children: for each label of the production,
       extract via σ; a node may be produced under several labels (it
       then appears once per label, ordered by document position). *)
    let element_candidates =
      List.concat_map
        (fun b ->
          let q = View.sigma_exn view ~parent:vlabel ~child:b in
          let extracted =
            Sxpath.Eval.run (Sxpath.Eval.Ctx.make ?env ~root:source ()) q
          in
          let kept =
            if View.is_dummy view b then extracted
            else List.filter is_accessible extracted
          in
          List.map (fun n -> (b, n)) kept)
        (Sdtd.Regex.labels prod)
    in
    let text_candidates =
      if Sdtd.Regex.mentions_str prod then
        List.filter_map
          (fun (c : Sxml.Tree.t) ->
            match c.desc with
            | Sxml.Tree.Text s when is_accessible c -> Some (c.id, s)
            | Sxml.Tree.Text _ | Sxml.Tree.Element _ -> None)
          (Sxml.Tree.children source)
      else []
    in
    let tagged =
      List.map
        (fun (b, n) -> (n.Sxml.Tree.id, `Elem (b, n)))
        element_candidates
      @ List.map (fun (id, s) -> (id, `Text s)) text_candidates
    in
    let ordered =
      List.sort (fun (i, _) (j, _) -> Int.compare i j) tagged
    in
    let word =
      List.map
        (function
          | _, `Elem (b, _) -> b
          | _, `Text _ -> Sdtd.Regex.pcdata)
        ordered
    in
    if not (Sdtd.Regex.matches prod word) then
      abort "children [%s] of <%s> (source node %d) do not match %s"
        (String.concat "; " word) vlabel source.Sxml.Tree.id
        (Sdtd.Regex.to_string prod);
    let vchildren =
      List.map
        (function
          | _, `Elem (b, n) -> Velem (build b n)
          | _, `Text s -> Vtext s)
        ordered
    in
    { vlabel; source; vattrs = attrs_of source; vchildren }
  in
  let root_label = View.root view in
  (match Sxml.Tree.tag doc with
  | Some tag when String.equal tag root_label -> ()
  | Some tag ->
    abort "document root <%s> does not match the view root <%s>" tag
      root_label
  | None -> abort "document root is a text node");
  build root_label doc

let to_tree vtree =
  let rec spec { vlabel; vattrs; vchildren; _ } =
    Sxml.Tree.elem vlabel ~attrs:vattrs
      (List.map
         (function Velem v -> spec v | Vtext s -> Sxml.Tree.text s)
         vchildren)
  in
  Sxml.Tree.of_spec (spec vtree)

let to_tree_with_sources vtree =
  let tree = to_tree vtree in
  (* [to_tree] numbers nodes in preorder, and the vtree visited in the
     same preorder yields matching elements; walk both in lockstep. *)
  let table = Hashtbl.create 64 in
  let rec walk (v : vtree) (n : Sxml.Tree.t) =
    Hashtbl.replace table n.Sxml.Tree.id v.source.Sxml.Tree.id;
    let elems =
      List.filter_map (function Velem c -> Some c | Vtext _ -> None)
        v.vchildren
    in
    List.iter2 walk elems (Sxml.Tree.element_children n)
  in
  walk vtree tree;
  (tree, fun id -> Hashtbl.find_opt table id)

let element_sources vtree =
  let rec go acc v =
    let acc = (v.vlabel, v.source.Sxml.Tree.id) :: acc in
    List.fold_left
      (fun acc -> function Velem c -> go acc c | Vtext _ -> acc)
      acc v.vchildren
  in
  List.rev (go [] vtree)

let size vtree =
  let rec go v =
    1
    + List.fold_left
        (fun acc -> function Velem c -> acc + go c | Vtext _ -> acc + 1)
        0 v.vchildren
  in
  go vtree
