module IntSet = Set.Make (Int)

let no_env : string -> string option = fun _ -> None

(* What a node hands its children in the accessibility recurrence:
   its own tag (to look up the children's annotations), whether every
   conditional annotation on it and its ancestors holds, and whether
   it is itself accessible (for inheritance). *)
type state = {
  ptag : string option;
  anc_ok : bool;
  parent_acc : bool;
}

let root_state = { ptag = None; anc_ok = true; parent_acc = true }

let step ctx spec st (node : Sxml.Tree.t) =
  let tag, key =
    match node.desc with
    | Sxml.Tree.Text _ -> (None, Sdtd.Regex.pcdata)
    | Sxml.Tree.Element e -> (Some e.tag, e.tag)
  in
  let annot =
    match st.ptag with
    | None -> Some Spec.Yes (* the root is Y by default *)
    | Some parent -> Spec.annotation spec ~parent ~child:key
  in
  let self_acc, qual_ok =
    match annot with
    | Some Spec.Yes -> (st.anc_ok, true)
    | Some Spec.No -> (false, true)
    | Some (Spec.Cond q) ->
      let holds = Sxpath.Eval.check ctx q node in
      (st.anc_ok && holds, holds)
    | None -> (st.parent_acc, true)
  in
  ( self_acc,
    { ptag = tag; anc_ok = st.anc_ok && qual_ok; parent_acc = self_acc } )

let rec iter_subtree ctx spec st f (node : Sxml.Tree.t) =
  let self_acc, st' = step ctx spec st node in
  f node self_acc;
  List.iter (iter_subtree ctx spec st' f) (Sxml.Tree.children node)

let first_inaccessible ctx spec st node =
  let exception Found of Sxml.Tree.t in
  match
    iter_subtree ctx spec st (fun n acc -> if not acc then raise (Found n)) node
  with
  | () -> None
  | exception Found n -> Some n

type flags = Bytes.t

(* Dense preorder numbering: the last node in preorder carries the
   largest identifier. *)
let rec last_id (node : Sxml.Tree.t) =
  match List.rev (Sxml.Tree.children node) with
  | [] -> node.id
  | last :: _ -> last_id last

let accessible_flags ?(env = no_env) spec doc =
  let ctx = Sxpath.Eval.Ctx.make ~env ~root:doc () in
  let flags = Bytes.make (last_id doc + 1) '\000' in
  iter_subtree ctx spec root_state
    (fun n acc -> if acc then Bytes.unsafe_set flags n.Sxml.Tree.id '\001')
    doc;
  flags

let flag flags id = Bytes.get flags id <> '\000'

let accessible_set ?env spec doc =
  let flags = accessible_flags ?env spec doc in
  let result = ref IntSet.empty in
  Bytes.iteri
    (fun id c -> if c <> '\000' then result := IntSet.add id !result)
    flags;
  !result

let accessible ?env spec doc v =
  IntSet.mem v.Sxml.Tree.id (accessible_set ?env spec doc)

(* Ancestor-qualifier truth along the path to a node: the same
   condition accessibility itself uses. *)
let rec anc_ok ~env spec ~parent_tag (target : Sxml.Tree.t)
    (node : Sxml.Tree.t) =
  (* walk down from [node] towards [target], conjoining qualifier
     annotations; returns None when target is not in this subtree *)
  let self_qual_ok () =
    match parent_tag with
    | None -> Some true
    | Some parent -> (
      match
        Spec.annotation spec ~parent
          ~child:
            (match node.Sxml.Tree.desc with
            | Sxml.Tree.Element e -> e.tag
            | Sxml.Tree.Text _ -> Sdtd.Regex.pcdata)
      with
      | Some (Spec.Cond q) ->
        Some (Sxpath.Eval.check (Sxpath.Eval.Ctx.make ~env ~root:node ()) q node)
      | _ -> Some true)
  in
  if node.Sxml.Tree.id = target.Sxml.Tree.id then self_qual_ok ()
  else
    match node.Sxml.Tree.desc with
    | Sxml.Tree.Text _ -> None
    | Sxml.Tree.Element e ->
      List.fold_left
        (fun acc child ->
          match acc with
          | Some _ -> acc
          | None -> (
            match
              anc_ok ~env spec ~parent_tag:(Some e.tag) target child
            with
            | Some ok -> (
              match self_qual_ok () with
              | Some ok' -> Some (ok && ok')
              | None -> Some ok)
            | None -> None))
        None e.children

let accessible_attributes ?(env = no_env) ?accessible spec doc node =
  match node.Sxml.Tree.desc with
  | Sxml.Tree.Text _ -> []
  | Sxml.Tree.Element e ->
    let declared = Sdtd.Dtd.attributes (Spec.dtd spec) e.tag in
    let flags =
      match accessible with
      | Some flags -> flags
      | None -> accessible_flags ~env spec doc
    in
    let node_accessible = flag flags node.Sxml.Tree.id in
    let ancestors_ok =
      lazy (anc_ok ~env spec ~parent_tag:None node doc = Some true)
    in
    List.filter
      (fun (name, _) ->
        List.mem name declared
        &&
        match Spec.annotation spec ~parent:e.tag ~child:("@" ^ name) with
        | Some Spec.Yes -> Lazy.force ancestors_ok
        | Some (Spec.Cond _) -> false (* rejected by Spec.make *)
        | Some Spec.No -> false
        | None -> node_accessible)
      e.attrs

let accessible_elements ?env spec doc =
  let set = accessible_set ?env spec doc in
  Sxml.Tree.find_all
    (fun n -> Sxml.Tree.is_element n && IntSet.mem n.Sxml.Tree.id set)
    doc

let annotate ?env ?(attribute = "accessibility") spec doc =
  let set = accessible_set ?env spec doc in
  Sxml.Tree.map_attrs
    (fun node ->
      let flag = if IntSet.mem node.Sxml.Tree.id set then "1" else "0" in
      let previous =
        match node.Sxml.Tree.desc with
        | Sxml.Tree.Element e ->
          List.remove_assoc attribute e.Sxml.Tree.attrs
        | Sxml.Tree.Text _ -> []
      in
      (attribute, flag) :: previous)
    doc
