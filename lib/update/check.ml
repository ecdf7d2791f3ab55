module IntSet = Secview.Access.IntSet
module Access = Secview.Access
module Tree = Sxml.Tree
module Error = Secview.Error

(* Visit [n] and every ancestor-or-self of the nodes whose ids are in
   [ids] (ascending, all inside [n]'s subtree) in preorder, threading
   [visit]'s result from parent to children.  Dense preorder ids make
   the child holding an id the last child whose id does not exceed
   it, so the walk touches the root paths and their siblings only. *)
let rec descend visit x (n : Tree.t) ids =
  let hit, below =
    match ids with
    | i :: rest when i = n.Tree.id -> (true, rest)
    | _ -> (false, ids)
  in
  let x' = visit x n ~hit ~inner:(below <> []) in
  let rec split children ids =
    match (children, ids) with
    | _, [] -> ()
    | (c : Tree.t) :: (next :: _ as rest), _ ->
      let rec take acc = function
        | i :: tl when i < next.Tree.id -> take (i :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let mine, others = take [] ids in
      if mine <> [] then descend visit x' c mine;
      split rest others
    | [ c ], ids -> descend visit x' c ids
    | [], _ :: _ -> invalid_arg "Check.descend: id outside the subtree"
  in
  split (Tree.children n) below

let denied fmt = Printf.ksprintf (fun s -> Error.Update_denied s) fmt
let invalid fmt = Printf.ksprintf (fun s -> Error.Invalid_update s) fmt

(* Every update that carries content needs an element: grants are
   per-edge tag pairs, so bare text has no edge to grant.  A typed
   error, not an assertion — library callers can build any [Ast.t]. *)
let content_tag = function
  | Tree.E (tag, _, _) -> Ok tag
  | Tree.T _ -> Error (invalid "update content must be an element")

(* A qualifier may use a variable only some nodes ever evaluate, and
   the local recheck below evaluates fewer qualifiers than a whole-
   document pass would: demanding every policy variable up front
   keeps the verdict independent of which qualifiers run. *)
let check_bound spec env =
  match
    List.find_opt (fun v -> env v = None) (Secview.Spec.variables spec)
  with
  | Some name -> Error (Error.Unbound_variable name)
  | None -> Ok ()

(* Where a target sits on the walk down from the root: the state and
   node of its parent, and whether an enclosing target removes it. *)
type at = {
  st : Access.state;
  parent : Tree.t option;
  removed : bool;
}

type admitted = {
  candidate : Tree.t;
  index : Sxml.Index.t;
  targets : int;
  runs : (int * int * int) list;
}

let no_env : string -> string option = fun _ -> None

let run ~dtd ~spec ~view ?(env = no_env) ?height ?(audit = fun _ -> ())
    ~conforms index update =
  let ( let* ) = Result.bind in
  let doc = Sxml.Index.node index 0 in
  let* () =
    match update with
    | Ast.Delete _ -> Ok ()
    | Ast.Insert { content; _ } | Ast.Replace { content; _ } ->
      Result.map ignore (content_tag content)
  in
  let* () = check_bound spec env in
  let* translated =
    match
      match height with
      | Some h ->
        Secview.Rewrite.rewrite_with_height view ~height:h
          (Ast.target update)
      | None -> Secview.Rewrite.rewrite view (Ast.target update)
    with
    | p -> Ok p
    | exception Secview.Rewrite.Unsupported msg ->
      Error (Error.Unsupported msg)
  in
  let ctx = Sxpath.Eval.Ctx.make ~env ~root:doc () in
  (* The targets come from the plan engine over the pinned index.  The
     interpreter runs only where the compiler refuses the path or the
     plan names a variable [env] leaves unbound: there its lazier
     error behaviour decides the verdict, as it always has. *)
  let* targets =
    match
      match Splan.Compile.compile translated with
      | Ok plan
        when Array.for_all (fun v -> env v <> None) (Splan.Compile.vars plan)
        ->
        Splan.Exec.run plan ~index ~env doc
      | Ok _ | Error _ -> Sxpath.Eval.run ctx translated
    with
    | ts -> Ok ts
    | exception Sxpath.Eval.Unbound_variable name ->
      Error (Error.Unbound_variable name)
  in
  let* () =
    if targets = [] then
      Error (invalid "target matches no node of the view")
    else Ok ()
  in
  let op = Ast.op update in
  let removes, into =
    match update with
    | Ast.Delete _ | Ast.Replace _ -> (true, false)
    | Ast.Insert { pos; _ } -> (false, pos = Ast.Into)
  in
  (* The accessibility recurrence along the root paths of the targets
     only: each target with its parent's state and its own verdict,
     and — for the preservation check below — the verdict of every
     surviving node whose subtree the edit changes, in document
     order. *)
  let found = ref [] and spine = ref [] in
  descend
    (fun at (n : Tree.t) ~hit ~inner ->
      let acc, st = Access.step ctx spec at.st n in
      if hit then found := (n, at, acc) :: !found;
      let survives = not (at.removed || (hit && removes)) in
      if survives && (inner || (hit && into)) then
        spine := (n.Tree.id, acc) :: !spine;
      { st; parent = Some n; removed = not survives })
    { st = Access.root_state; parent = None; removed = false }
    doc
    (List.map (fun (t : Tree.t) -> t.Tree.id) targets);
  let edge_grant ~parent ~child =
    if Secview.Spec.writable spec ~parent ~child op then Ok ()
    else
      Error
        (denied "no %s grant on edge (%s, %s)"
           (Secview.Spec.write_op_to_string op)
           parent child)
  in
  let parent_tag at =
    match at.parent with
    | Some p -> Ok (Option.get (Tree.tag p))
    | None -> Error (denied "the document root has no parent edge to grant")
  in
  (* Denial text goes back to the client verbatim, so it must not name
     node identifiers: ids are dense preorder positions, and echoing
     the id of a hidden node (or the gap around it) would let a group
     probe out the size and location of subtrees the view conceals.
     The precise, id-bearing reason goes to [audit] instead — the
     server writes it to the operator's audit log only. *)
  let subtree_accessible (t : Tree.t) at =
    match Access.first_inaccessible ctx spec at.st t with
    | None -> Ok ()
    | Some n ->
      audit
        (Printf.sprintf
           "target subtree at node id %d contains inaccessible node id %d"
           t.Tree.id n.Tree.id);
      Error (denied "target subtree contains inaccessible content")
  in
  let target_accessible (t : Tree.t) acc =
    if acc then Ok ()
    else begin
      audit (Printf.sprintf "target node id %d is not accessible" t.Tree.id);
      Error (denied "target node is not accessible")
    end
  in
  let check_target ((t : Tree.t), at, acc) =
    let ttag =
      match Tree.tag t with Some tag -> tag | None -> "#PCDATA"
    in
    let* () =
      if Tree.is_element t then Ok ()
      else Error (invalid "target is not an element node")
    in
    match update with
    | Ast.Delete _ ->
      let* () =
        if t.Tree.id = 0 then
          Error (invalid "cannot delete the document root")
        else Ok ()
      in
      let* ptag = parent_tag at in
      let* () = edge_grant ~parent:ptag ~child:ttag in
      subtree_accessible t at
    | Ast.Replace _ ->
      let* ptag = parent_tag at in
      let* () = edge_grant ~parent:ptag ~child:ttag in
      subtree_accessible t at
    | Ast.Insert { pos = Ast.Into; content; _ } ->
      let* ctag = content_tag content in
      let* () = target_accessible t acc in
      edge_grant ~parent:ttag ~child:ctag
    | Ast.Insert { pos = Ast.Before | Ast.After; content; _ } ->
      let* ctag = content_tag content in
      let* () = target_accessible t acc in
      let* ptag = parent_tag at in
      edge_grant ~parent:ptag ~child:ctag
  in
  let* () =
    List.fold_left
      (fun acc t -> Result.bind acc (fun () -> check_target t))
      (Ok ()) (List.rev !found)
  in
  let op =
    match update with
    | Ast.Delete _ -> Sxml.Index.Delete
    | Ast.Replace { content; _ } -> Sxml.Index.Replace content
    | Ast.Insert { pos; content; _ } -> Sxml.Index.Insert (pos, content)
  in
  let sp =
    Secview.Trace.span "splice" (fun () ->
        Sxml.Index.edit index op
          (List.map (fun (t : Tree.t) -> t.Tree.id) targets))
  in
  let candidate = Sxml.Index.node sp.index 0 in
  (* The same recurrence over the candidate, along the root paths of
     the elements whose children changed: their verdicts, and the
     state each hands the spliced copies among its children. *)
  let ctx' = Sxpath.Eval.Ctx.make ~env ~root:candidate () in
  let spine' = ref [] and edited = ref [] in
  descend
    (fun st (n : Tree.t) ~hit ~inner:_ ->
      let acc, st' = Access.step ctx' spec st n in
      spine' := acc :: !spine';
      if hit then edited := (n, st') :: !edited;
      st')
    Access.root_state candidate sp.parents;
  let edited = List.rev !edited in
  let starts = IntSet.of_list sp.copies in
  let copies =
    List.concat_map
      (fun (n, st) ->
        List.filter_map
          (fun (c : Tree.t) ->
            if IntSet.mem c.Tree.id starts then Some (c, st) else None)
          (Tree.children n))
      edited
  in
  (* Conformance: when the pinned document conforms, only the elements
     whose children changed and the spliced copies can violate the
     DTD.  Violations are ranked like [Validate.check]'s, by node.
     When it does not, the whole candidate is validated, and the first
     violation may sit in content the group cannot see: the client
     then learns only that the result does not conform. *)
  let* () =
    let conforms = conforms () in
    let violations =
      if not conforms then Sdtd.Validate.check dtd candidate
      else
        let of_node n = Sdtd.Validate.element_violations dtd n in
        List.stable_sort
          (fun (a : Sdtd.Validate.violation) b ->
            Int.compare a.node_id b.node_id)
          (List.concat_map (fun (n, _) -> of_node n) edited
          @ List.concat_map
              (fun (c, _) ->
                List.concat_map of_node (Tree.descendants_or_self c))
              copies)
    in
    match violations with
    | [] -> Ok ()
    | v :: _ ->
      audit (Format.asprintf "%a" Sdtd.Validate.pp_violation v);
      if conforms then
        Error
          (invalid "result does not conform to the DTD: <%s>: %s"
             v.Sdtd.Validate.element v.Sdtd.Validate.summary)
      else Error (invalid "result does not conform to the DTD")
  in
  let* () =
    (* A group cannot write data it could not then read back: every
       node of the spliced content must be accessible in the new
       document.  (Deletes splice nothing; their admission was the
       subtree check above.) *)
    if
      List.exists
        (fun (c, st) -> Access.first_inaccessible ctx' spec st c <> None)
        copies
    then Error (denied "inserted content would not be accessible")
    else Ok ()
  in
  let* () =
    (* The other half of WITH CHECK OPTION: the edit must not flip the
       accessibility of anything it did not touch.  With conditional
       annotations a narrowly-granted write can otherwise satisfy (or
       falsify) a qualifier guarding a pre-existing sibling subtree
       and unlock data the group was never granted.  Qualifiers look
       only downward, so a survivor's verdict can change only if that
       of a node whose subtree the edit changed does; the topmost such
       change is itself a flip, so comparing those nodes — the two
       spines, which pair up in document order — finds the first
       flipped survivor. *)
    let rec first_flip = function
      | (id, before) :: rest, after :: rest' ->
        if before <> after then Some (id, after) else first_flip (rest, rest')
      | [], [] -> None
      | _ -> invalid_arg "Check.run: the spines do not pair up"
    in
    match first_flip (List.rev !spine, List.rev !spine') with
    | None -> Ok ()
    | Some (id, now) ->
      audit
        (Printf.sprintf
           "update would make untouched node id %d %s" id
           (if now then "accessible" else "inaccessible"));
      Error (denied "update would change the visibility of existing content")
  in
  Ok
    {
      candidate;
      index = sp.index;
      targets = List.length targets;
      runs = sp.runs;
    }

(* Survivors kept their verdicts and every spliced node is accessible
   — admission proved both — so the candidate's flags are the pinned
   ones moved along the survivor runs, with accessible nodes in the
   gaps.  A survivor's qualifier bit is kept too: the first qualifier
   to change its truth on a survivor's root path, with every qualifier
   above it true, would have flipped that qualified node's verdict. *)
let carry flags (a : admitted) =
  let out = Access.all_accessible (Sxml.Index.size a.index) in
  List.iter (fun (o, n, len) -> Bytes.blit flags o out n len) a.runs;
  out
